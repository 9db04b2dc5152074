// Package clitest pins a command's output byte for byte. The command's
// test binary doubles as the command (Main), so a test runs it end to end
// in a fresh process and compares its stdout, and the files its output
// flags write, with goldens under testdata.
//
// Every golden is replayed at several partition and worker counts
// (variants): the outputs must not depend on either. -par 0 runs the
// serial engine, which schedules differently; where its output differs it
// has its own golden, named <stem>-par0. go test -update rewrites the
// goldens from the current build, writing a -par0 golden only where the
// serial output differs from the partitioned one.
package clitest

import (
	"bytes"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// update is set by Main when the test binary was given -update.
var update bool

// Main is a TestMain body. With the environment variable env set, the
// test binary runs cmdMain as the command and exits. Otherwise it takes
// -update off the command line (so the flag never joins the command's
// flag set) and runs the tests.
func Main(m *testing.M, env string, cmdMain func()) {
	if os.Getenv(env) != "" {
		cmdMain()
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

// variant is one -par/-jobs setting a golden is replayed at.
type variant struct {
	name      string
	par, jobs int
}

// variants lists the settings every golden is replayed at. The
// partitioned runs come first, so -update writes each golden from a
// partitioned run before the serial runs decide whether they need their
// own.
var variants = []variant{
	{"par1", 1, 1},
	{"par2", 2, 2},
	{"par8", 8, 8},
	{"par0", 0, 1},
	{"par0-jobs8", 0, 8},
}

// Case is one pinned invocation of the command.
type Case struct {
	Name   string
	Golden string   // golden file stem under testdata; Name when empty
	Args   []string // -par and -jobs are appended per variant
	Files  []string // output flags ("trace", "metrics", ...) whose files are pinned as <stem>.<flag>.golden
	MaxPar int      // when > 0, the case is replayed only at -par <= MaxPar
}

// Goldens runs cases of one command against testdata.
type Goldens struct {
	env     string
	written map[string]bool // goldens -update has settled in this run
}

// New returns a runner for the command whose test binary runs it under
// the environment variable env (see Main).
func New(env string) *Goldens { return &Goldens{env: env, written: map[string]bool{}} }

// Run replays every case at every variant it admits, as subtests
// <variant>/<case>.
func (g *Goldens) Run(t *testing.T, cases []Case) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, c := range cases {
				if c.MaxPar > 0 && v.par > c.MaxPar {
					continue
				}
				t.Run(c.Name, func(t *testing.T) { g.check(t, c, v) })
			}
		})
	}
}

func (g *Goldens) check(t *testing.T, c Case, v variant) {
	dir := t.TempDir()
	args := append(append([]string{}, c.Args...), "-par", strconv.Itoa(v.par), "-jobs", strconv.Itoa(v.jobs))
	for _, f := range c.Files {
		args = append(args, "-"+f, filepath.Join(dir, f))
	}
	cmd := osexec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), g.env+"=1")
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	stem := c.Golden
	if stem == "" {
		stem = c.Name
	}
	g.compare(t, stem, "", v.par == 0, stdout)
	for _, f := range c.Files {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		g.compare(t, stem, "."+f, v.par == 0, got)
	}
}

// compare checks got against testdata/<stem><suffix>.golden, or against
// its -par0 golden for a serial run when one exists.
func (g *Goldens) compare(t *testing.T, stem, suffix string, serial bool, got []byte) {
	path := filepath.Join("testdata", stem+suffix+".golden")
	if serial {
		own := filepath.Join("testdata", stem+"-par0"+suffix+".golden")
		if update && !g.written[own] {
			g.written[own] = true
			if want, err := os.ReadFile(path); err == nil && bytes.Equal(got, want) {
				os.Remove(own)
			} else {
				write(t, own, got)
			}
		}
		if _, err := os.Stat(own); err == nil {
			path = own
		}
	} else if update && !g.written[path] {
		g.written[path] = true
		write(t, path, got)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s: %s", path, difference(got, want))
	}
}

func write(t *testing.T, path string, b []byte) {
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// difference renders got in full when it is short, and otherwise the
// first line where it departs from want.
func difference(got, want []byte) string {
	if len(got) <= 16<<10 {
		return "got:\n" + string(got)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gl {
		if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			var w []byte
			if i < len(wl) {
				w = wl[i]
			}
			return fmt.Sprintf("first difference at line %d:\n got %.300q\nwant %.300q", i+1, gl[i], w)
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(gl), len(wl))
}
