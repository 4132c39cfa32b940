package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/module seeds one diagnostic per
// mechanism the driver must handle: a direct borrowcheck escape (keep)
// in a package cmd/go also hands the tool as a dependency-only unit,
// and one //lint:ignore directive per state (ignores): used, stale, and
// malformed.
const fixtureModule = "testdata/module"

// diagLine matches one diagnostic as the tool prints it:
// "<file>:<line>:<col>: <message> (<analyzer>)".
var diagLine = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*) \((\w+)\)$`)

// vetRun is one `go vet -vettool` run and the diagnostics it printed.
type vetRun struct {
	out   []byte
	err   error
	diags []string // "<base>:<line> <analyzer>: <message>", sorted
}

// vetTool is cmd/mcs-vet, built once per test binary and shared by
// every test that runs go vet with it.
var vetTool struct {
	once  sync.Once
	goCmd string // the go command
	root  string // the repository root
	bin   string // the built tool
	skip  string // non-empty when go vet cannot run here
	fatal string // non-empty when building the tool failed
	tmp   string // holds bin; removed by TestMain
}

var (
	fixtureOnce sync.Once
	fixtureRun  vetRun
	fixtureErr  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if vetTool.tmp != "" {
		os.RemoveAll(vetTool.tmp)
	}
	os.Exit(code)
}

// buildVetTool builds cmd/mcs-vet on first use and returns the go
// command, the repository root and the tool.
func buildVetTool(t *testing.T) (goCmd, root, bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a binary and runs go vet")
	}
	vt := &vetTool
	vt.once.Do(func() {
		var err error
		if vt.goCmd, err = exec.LookPath("go"); err != nil {
			vt.skip = "go not on PATH: " + err.Error()
			return
		}
		if vt.root, err = filepath.Abs(filepath.Join("..", "..")); err != nil {
			vt.fatal = err.Error()
			return
		}
		if vt.tmp, err = os.MkdirTemp("", "mcs-vet-test"); err != nil {
			vt.fatal = err.Error()
			return
		}
		vt.bin = filepath.Join(vt.tmp, "mcs-vet")
		build := exec.Command(vt.goCmd, "build", "-o", vt.bin, "mcspeedup/cmd/mcs-vet")
		build.Dir = vt.root
		if out, err := build.CombinedOutput(); err != nil {
			vt.fatal = "building mcs-vet: " + err.Error() + "\n" + string(out)
		}
	})
	if vt.skip != "" {
		t.Skip(vt.skip)
	}
	if vt.fatal != "" {
		t.Fatal(vt.fatal)
	}
	return vt.goCmd, vt.root, vt.bin
}

// runVet runs `go vet -vettool=<bin> <args>` in dir and collects the
// diagnostics it prints.
func runVet(goCmd, bin, dir string, args ...string) vetRun {
	cmd := exec.Command(goCmd, append([]string{"vet", "-vettool=" + bin}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	var diags []string
	for _, line := range strings.Split(string(out), "\n") {
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		diags = append(diags, filepath.Base(m[1])+":"+m[2]+" "+m[4]+": "+m[3])
	}
	sort.Strings(diags)
	return vetRun{out: out, err: err, diags: diags}
}

// vetFixture runs `go vet -vettool` once over a copy of the fixture
// module, sharing the result across tests.
func vetFixture(t *testing.T) *vetRun {
	t.Helper()
	goCmd, _, bin := buildVetTool(t)
	fixtureOnce.Do(func() {
		mod := filepath.Join(vetTool.tmp, "module")
		if err := copyTree(fixtureModule, mod); err != nil {
			fixtureErr = "copying fixture module: " + err.Error()
			return
		}
		fixtureRun = runVet(goCmd, bin, mod, "./...")
	})
	if fixtureErr != "" {
		t.Fatal(fixtureErr)
	}
	return &fixtureRun
}

// matching returns the run's diagnostics whose analyzer passes keep.
func (r *vetRun) matching(keep func(analyzer string) bool) []string {
	var got []string
	for _, d := range r.diags {
		analyzer := strings.TrimSuffix(strings.Fields(d)[1], ":")
		if keep(analyzer) {
			got = append(got, d)
		}
	}
	return got
}

// expectPrefixes asserts got matches want one to one, by prefix.
func expectPrefixes(t *testing.T, r *vetRun, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s\nfull output:\n%s",
			len(got), len(want), strings.Join(got, "\n"), r.out)
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("diagnostic %d = %q; want prefix %q", i, got[i], want[i])
		}
	}
}

// wantFindings are the analyzer findings over the fixture module,
// sorted. ignores.go:15 is absent because the used directive above it
// suppresses it.
var wantFindings = []string{
	"ignores.go:28 borrowcheck: core.Scratch stored in a package-level variable",
	"keep.go:13 borrowcheck: core.Scratch stored in a package-level variable",
}

// wantIgnores are the //lint:ignore directive findings, sorted: the used
// directive is silent, the stale and malformed ones are reported.
var wantIgnores = []string{
	"ignores.go:20 lint: stale //lint:ignore borrowcheck",
	"ignores.go:27 lint: malformed //lint:ignore",
}

// TestVettoolRoundTrip drives the cmd/go vet-tool protocol end to end:
// build cmd/mcs-vet, run `go vet -vettool` once over a copy of the
// fixture module, and assert the exit status and the exact diagnostic
// set, file by file and analyzer by analyzer.
func TestVettoolRoundTrip(t *testing.T) {
	r := vetFixture(t)
	if r.err == nil {
		t.Fatalf("go vet succeeded; want a diagnostic exit\n%s", r.out)
	}
	want := append(append([]string(nil), wantFindings...), wantIgnores...)
	sort.Strings(want)
	expectPrefixes(t, r, r.diags, want)
}

// TestRunModuleFixtureDiagnostics pins the analyzer findings alone.
func TestRunModuleFixtureDiagnostics(t *testing.T) {
	r := vetFixture(t)
	expectPrefixes(t, r, r.matching(func(a string) bool { return a != "lint" }), wantFindings)
}

// TestRunModuleIgnoresAudit pins the three //lint:ignore states alone.
func TestRunModuleIgnoresAudit(t *testing.T) {
	r := vetFixture(t)
	expectPrefixes(t, r, r.matching(func(a string) bool { return a == "lint" }), wantIgnores)
}

// copyTree copies the fixture module into dst so go vet runs against a
// standalone module root, outside the repository's own module.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
}
