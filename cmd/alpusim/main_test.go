package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		size, par, shards int
		format, faults    string
		ok                bool
	}{
		{0, 0, 0, "table", "", true},
		{1024, 0, 0, "table", "", true},
		{1024, 8, 0, "table", "", true},
		{0, 0, 4, "csv", "0.02", true},
		{-1, 0, 0, "table", "", false},
		{-100, 0, 0, "table", "", false},
		{0, -1, 0, "table", "", false},
		{1024, -3, 0, "table", "", false},
		{0, 0, -1, "table", "", false},
		{0, 0, 0, "json", "", false},
		{0, 0, 0, "table", "garbage", false},
	} {
		fm, err := checkFlags(c.size, c.par, c.shards, c.format, c.faults, 1)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(-size %d -par %d -shards %d -format %q -faults %q) = %v, want ok=%v",
				c.size, c.par, c.shards, c.format, c.faults, err, c.ok)
		}
		if err == nil && (fm != nil) != (c.faults != "") {
			t.Errorf("checkFlags(-faults %q) fault model = %v", c.faults, fm)
		}
	}
}

// TestFlagSurface pins the registered flags: the shared observability
// block must not add or drop an option of this cmd.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := "cpuprofile experiment faults flightdump flightsize format jobs linger log memprofile " +
		"metrics par quick report seed serve shards simprof size timeseries trace"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("flags:\n got %s\nwant %s", s, want)
	}
}

// update rewrites the testdata goldens from the current build: go test
// ./cmd/alpusim -update. TestMain takes the flag off the command line
// itself, so it never joins the flag set TestFlagSurface pins.
var update bool

// TestMain doubles as the alpusim binary: with ALPUSIM_MAIN set, the test
// executable runs main with its own arguments, so a test can drive the
// command end to end in a fresh process (the flags are package globals).
func TestMain(m *testing.M) {
	if os.Getenv("ALPUSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	args := os.Args[:1]
	for _, a := range os.Args[1:] {
		if a == "-update" || a == "--update" {
			update = true
			continue
		}
		args = append(args, a)
	}
	os.Args = args
	os.Exit(m.Run())
}

// TestQuickAllGolden pins the stdout of -quick -experiment all byte for
// byte. -par 1 and -par 2 share one golden; -par 0 (the serial engine)
// schedules differently and has its own. go test ./cmd/alpusim -update
// rewrites the files.
func TestQuickAllGolden(t *testing.T) {
	for _, c := range []struct {
		par    int
		golden string
	}{
		{0, "all-quick-par0.golden"},
		{1, "all-quick.golden"},
		{2, "all-quick.golden"},
	} {
		t.Run(fmt.Sprintf("par%d", c.par), func(t *testing.T) {
			cmd := osexec.Command(os.Args[0], "-quick", "-experiment", "all", "-jobs", "2", "-par", strconv.Itoa(c.par))
			cmd.Env = append(os.Environ(), "ALPUSIM_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("alpusim %v: %v", cmd.Args[1:], err)
			}
			path := filepath.Join("testdata", c.golden)
			if update && c.par != 2 {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s:\n%s", path, got)
			}
		})
	}
}
