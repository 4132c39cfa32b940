package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// A mutation is one realistic edit to a file of the real module that
// one analyzer of the suite must catch: the live target that keeps the
// analyzer in the roster. Each row must produce exactly one diagnostic,
// from its analyzer, on the line of its edited file where at ends.
type mutation struct {
	analyzer string
	file     string      // module-relative path of the edited file
	edits    [][2]string // old → new; each old occurs exactly once
	at       string      // occurs exactly once in the edited file
	message  string      // prefix of the diagnostic's message
}

var mutations = []mutation{
	{
		// sessionReport takes the session lock before it waits for an
		// admission slot instead of after.
		analyzer: "lockcheck",
		file:     "internal/server/session.go",
		edits: [][2]string{
			{"\tif err := s.pool.Acquire(admit); err != nil {",
				"\tsn.mu.Lock()\n\tdefer sn.mu.Unlock()\n\tif err := s.pool.Acquire(admit); err != nil {"},
			{"\tdefer s.pool.Release()\n\n\tsn.mu.Lock()\n\tdefer sn.mu.Unlock()\n",
				"\tdefer s.pool.Release()\n\n"},
		},
		at:      "if err := s.pool.Acquire(admit); err != nil {",
		message: "sessionReport calls mcspeedup/internal/par.Acquire while holding a mutex",
	},
	{
		// serveSessionReport builds the response from the session
		// without its lock.
		analyzer: "deltacheck",
		file:     "internal/server/session.go",
		edits: [][2]string{
			{"\tsn.mu.Lock()\n\tresp := sessionResponse{", "\tresp := sessionResponse{"},
			{"\t}\n\tsn.mu.Unlock()\n\tif hit {", "\t}\n\tif hit {"},
		},
		at:      "Fingerprint:   sn.core.Fingerprint(),",
		message: "serveSessionReport uses a session's core state without locking its mu",
	},
	{
		// A pasted line registers the cache-hit family a second time.
		analyzer: "metricscheck",
		file:     "internal/server/metrics.go",
		edits: [][2]string{
			{"\tfmt.Fprintf(&b, \"mcs_cache_hits_total %d\\n\", cs.Hits)\n",
				"\tfmt.Fprintf(&b, \"mcs_cache_hits_total %d\\n\", cs.Hits)\n\tb.WriteString(\"# TYPE mcs_cache_hits_total counter\\n\")\n"},
		},
		at:      "cs.Hits)\n\tb.WriteString(\"# TYPE mcs_cache_hits_total counter\\n\")",
		message: "metric family mcs_cache_hits_total registered more than once",
	},
	{
		// Fig. 5's speedup rows share one arena across the fan-out.
		analyzer: "borrowcheck",
		file:     "internal/experiments/fig5.go",
		edits: [][2]string{
			{"\tsmin, err := par.Map(len(res.YGrid), workers, func(yi int) ([]float64, error) {\n\t\ty := res.YGrid[yi]\n\t\tscratch := new(core.Scratch)\n",
				"\tscratch := new(core.Scratch)\n\tsmin, err := par.Map(len(res.YGrid), workers, func(yi int) ([]float64, error) {\n\t\ty := res.YGrid[yi]\n"},
		},
		at:      "\t\t\t\tScratch:     scratch,",
		message: "core.Scratch scratch captured by a concurrently-launched function",
	},
	{
		// The service-quality study seeds itself from the wall clock.
		analyzer: "determcheck",
		file:     "internal/experiments/service.go",
		edits: [][2]string{
			{"\t\"strings\"\n", "\t\"strings\"\n\t\"time\"\n"},
			{"\t\tc.Seed = 2015\n", "\t\tc.Seed = time.Now().UnixNano()\n"},
		},
		at:      "c.Seed = time.Now().UnixNano()",
		message: "time.Now in a determinism-critical package",
	},
	{
		// The speed-for-reset walk loses its event budget.
		analyzer: "plancheck",
		file:     "internal/core/design.go",
		edits: [][2]string{
			{"\t\tevents++\n\t\tif events > o.maxEvents() {\n\t\t\treturn SpeedForResetResult{}, fmt.Errorf(\n\t\t\t\t\"core: speed-for-reset walk exceeded %d events before budget %d; raise Options.MaxEvents or lower the budget\",\n\t\t\t\to.maxEvents(), budget)\n\t\t}\n",
				"\t\tevents++\n"},
		},
		at:      "w := o.acquireWalker(s, dbf.KindADB)",
		message: "MinSpeedForResetOpts starts a demand walk (acquireWalker) without consulting Options.MaxEvents",
	},
	{
		// Corollary 5's speed test cross-multiplies raw numerators.
		analyzer: "ratcheck",
		file:     "internal/core/reset.go",
		edits: [][2]string{
			{"\tif speed.Cmp(uHI) <= 0 {", "\tif speed.Num()*uHI.Den() <= uHI.Num()*speed.Den() {"},
		},
		at:      "if speed.Num()*uHI.Den() <= uHI.Num()*speed.Den() {",
		message: "raw ordering (<=) on a rat.Rat numerator/denominator",
	},
}

// TestLiveMutations applies every row of mutations to the real module
// through a go build overlay, runs `go vet -vettool` once over the
// edited packages, and asserts the exact diagnostic set: one per row,
// from its analyzer, at its line. The module itself is not modified.
func TestLiveMutations(t *testing.T) {
	goCmd, root, bin := buildVetTool(t)
	dir := t.TempDir()

	edited := make(map[string]string) // module-relative path -> content
	var files []string
	for _, m := range mutations {
		src, ok := edited[m.file]
		if !ok {
			data, err := os.ReadFile(filepath.Join(root, m.file))
			if err != nil {
				t.Fatal(err)
			}
			src = string(data)
			files = append(files, m.file)
		}
		for _, e := range m.edits {
			if n := strings.Count(src, e[0]); n != 1 {
				t.Fatalf("%s row: %s holds the edit's old text %d times, want 1: %q", m.analyzer, m.file, n, e[0])
			}
			src = strings.Replace(src, e[0], e[1], 1)
		}
		edited[m.file] = src
	}

	overlay := map[string]map[string]string{"Replace": {}}
	pkgs := make(map[string]bool)
	for i, file := range files {
		// One directory per file keeps the base names diagnostics print.
		sub := filepath.Join(dir, strconv.Itoa(i))
		if err := os.Mkdir(sub, 0o777); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(sub, filepath.Base(file))
		if err := os.WriteFile(path, []byte(edited[file]), 0o666); err != nil {
			t.Fatal(err)
		}
		overlay["Replace"][filepath.Join(root, file)] = path
		pkgs["./"+filepath.ToSlash(filepath.Dir(file))] = true
	}
	overlayJSON, err := json.Marshal(overlay)
	if err != nil {
		t.Fatal(err)
	}
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlayJSON, 0o666); err != nil {
		t.Fatal(err)
	}

	var want []string
	for _, m := range mutations {
		src := edited[m.file]
		if n := strings.Count(src, m.at); n != 1 {
			t.Fatalf("%s row: edited %s holds at %d times, want 1: %q", m.analyzer, m.file, n, m.at)
		}
		line := 1 + strings.Count(src[:strings.Index(src, m.at)+len(m.at)], "\n")
		want = append(want, filepath.Base(m.file)+":"+strconv.Itoa(line)+" "+m.analyzer+": "+m.message)
	}
	sort.Strings(want)

	args := []string{"-overlay=" + overlayPath}
	for p := range pkgs {
		args = append(args, p)
	}
	sort.Strings(args[1:])
	r := runVet(goCmd, bin, root, args...)
	if r.err == nil {
		t.Fatalf("go vet succeeded; want a diagnostic exit\n%s", r.out)
	}
	expectPrefixes(t, &r, r.diags, want)
}
