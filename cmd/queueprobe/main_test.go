package main

import (
	"bytes"
	"flag"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"alpusim/internal/alpu"
	"alpusim/internal/match"
	"alpusim/internal/sim"
)

func TestParseTriple(t *testing.T) {
	for _, c := range []struct {
		in   string
		want match.Recv
		ok   bool
	}{
		{"1 3 7", match.Recv{Context: 1, Source: 3, Tag: 7}, true},
		{"1 * *", match.Recv{Context: 1, Source: match.AnySource, Tag: match.AnyTag}, true},
		{"2047 32767 65535", match.Recv{Context: 2047, Source: 32767, Tag: 65535}, true},
		{"* 1 1", match.Recv{}, false}, // the context is never a wildcard (§II)
		{"2048 1 1", match.Recv{}, false},
		{"1 32768 1", match.Recv{}, false},
		{"1 99999999999 7", match.Recv{}, false},
		{"1 -5 7", match.Recv{}, false},
		{"1 1 65536", match.Recv{}, false},
		{"1 1 -1", match.Recv{}, false},
		{"x 1 1", match.Recv{}, false},
	} {
		bits, mask, err := parseTriple(strings.Fields(c.in))
		if (err == nil) != c.ok {
			t.Errorf("parseTriple(%q) = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if wb, wm := match.PackRecv(c.want); c.ok && (bits != wb || mask != wm) {
			t.Errorf("parseTriple(%q) = %#x/%#x, want %#x/%#x", c.in, bits, mask, wb, wm)
		}
	}
}

func TestExecRejectsBadAlputag(t *testing.T) {
	eng := sim.NewEngine()
	dev, err := alpu.NewDevice(eng, "alpu", alpu.DefaultConfig(16), alpu.Env{Variant: alpu.PostedReceives})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"insert 1 1 7 -5", "insert 1 1 7 4294967296", "insert 1 99999999999 7 5"} {
		if err := exec(eng, dev, line); err == nil {
			t.Errorf("exec(%q) accepted", line)
		}
	}
	if err := exec(eng, dev, "insert 1 1 7 4294967295"); err != nil {
		t.Errorf("exec of the largest alputag: %v", err)
	}
}

func TestParseVariant(t *testing.T) {
	for _, c := range []struct {
		in   string
		want alpu.Variant
		ok   bool
	}{
		{"posted", alpu.PostedReceives, true},
		{"unexpected", alpu.UnexpectedMessages, true},
		{"bogus", 0, false},
		{"", 0, false},
	} {
		v, err := parseVariant(c.in)
		if (err == nil) != c.ok || (c.ok && v != c.want) {
			t.Errorf("parseVariant(%q) = %v, %v; want %v ok=%v", c.in, v, err, c.want, c.ok)
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
	want := "block cells cpuprofile demo linger memprofile metrics serve trace variant"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("flags:\n got %s\nwant %s", s, want)
	}
}

// TestMain doubles as the queueprobe binary: with QUEUEPROBE_MAIN set,
// the test executable runs main with its own arguments, so a test can
// drive the command end to end.
func TestMain(m *testing.M) {
	if os.Getenv("QUEUEPROBE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDemoWideBlocks runs the demo script on geometries whose blocks span
// whole 64-cell words — a block of two words, and one block covering the
// array — and at the default geometry with -trace and -metrics, and
// compares stdout, and each file an output flag wrote, with the goldens
// (testdata/<name>.golden and <name>.<flag>.golden).
func TestDemoWideBlocks(t *testing.T) {
	for _, c := range []struct {
		name  string
		args  []string
		files []string // output flags whose files are pinned
	}{
		{"demo-cells256-block128", []string{"-cells", "256", "-block", "128"}, nil},
		{"demo-cells256-block256", []string{"-cells", "256", "-block", "256"}, nil},
		{"demo-trace-metrics", nil, []string{"trace", "metrics"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-demo"}, c.args...)
			dir := t.TempDir()
			for _, f := range c.files {
				args = append(args, "-"+f, filepath.Join(dir, f))
			}
			cmd := osexec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "QUEUEPROBE_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("queueprobe %v: %v", args, err)
			}
			compare := func(what string, got []byte, golden string) {
				want, err := os.ReadFile(filepath.Join("testdata", golden))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from testdata/%s:\n%s", what, golden, got)
				}
			}
			compare("stdout", got, c.name+".golden")
			for _, f := range c.files {
				b, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				compare("-"+f, b, c.name+"."+f+".golden")
			}
		})
	}
}
