package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"mcspeedup/internal/task"
)

// goldenSets pins every byte the generator emits for fixed seeds: the
// SHA-256 of the marshalled sets each case draws. Every generated corpus
// (the Fig. 6/7 experiments, the benchmark corpora, mcs-gen) follows from
// these draws, so a change here is an RNG-affecting change — it must be
// deliberate, and docs/experiments_output.txt must be regenerated with it.
var goldenSets = map[string]string{
	"MustSet/U=0.4/gamma=1-3":   "6769efe84a3ed8edbacbf702b2b3d5c60f034713ec915e1169747418b544a704",
	"MustSet/U=0.4/gamma=10":    "08cc2c79909f9fb07a0c508b2065a2e28b7e138ba6e40da3b3859c8de8093061",
	"MustSet/U=0.5/gamma=1-3":   "772687748822fd12ffb58775e373bd83adba1d326572ad9561332cb0d26193e2",
	"MustSet/U=0.5/gamma=10":    "77e1738808c24c4ea75e576421147b0f8674b47ce0078e8eda4d43418f906d35",
	"MustSet/U=0.6/gamma=1-3":   "076d8209457bfa164549c477d76cd0bfa598f737627d0a541b22b7a5442c60d8",
	"MustSet/U=0.6/gamma=10":    "c3220dae9d403134076eb10a26191e92bd7bf7f8e4603a93267f081a801b8c3c",
	"MustSet/U=0.7/gamma=1-3":   "e1ffc389250678e1aaafca2b0a470117f57e9e42039089110267ec06b6419104",
	"MustSet/U=0.7/gamma=10":    "0adacbf8ac896eb389a479928c5b9af1fd05ad683fcbd50f315de0f8291bc740",
	"MustSet/U=0.8/gamma=1-3":   "435c32adc625b2d15ff766bb5efe5bd67e3c7e608c86d73be3cba685be9baa94",
	"MustSet/U=0.8/gamma=10":    "3129f4ecb08ae1f8d740a77f5a726f791c5b450d3656a1afc7cc1c8c188bcbe8",
	"MustSet/U=0.9/gamma=1-3":   "cdde9533f319a66665d6772fde680a2c704100cd1fe0d8b476e2664652cbc9f9",
	"MustSet/U=0.9/gamma=10":    "81fed7dcf88219f8e6a567b583076259851c2fea23655670a1b3ba41917560a0",
	"Set/U=0.4/gamma=1-3":       "6769efe84a3ed8edbacbf702b2b3d5c60f034713ec915e1169747418b544a704",
	"Set/U=0.4/gamma=10":        "303ae98975879669f480303a4644cf6dbd0415037b718ab17e6c786cc57d3e1a",
	"Set/U=0.5/gamma=1-3":       "772687748822fd12ffb58775e373bd83adba1d326572ad9561332cb0d26193e2",
	"Set/U=0.5/gamma=10":        "562abd43575978305f5ab678c7de97d16318c4fa2cc5c73d888666322f41a85d",
	"Set/U=0.6/gamma=1-3":       "076d8209457bfa164549c477d76cd0bfa598f737627d0a541b22b7a5442c60d8",
	"Set/U=0.6/gamma=1-3/tight": "d6f3f85132baa915095c8822897b74b6a644648c20b89b27cc49a344ee62ca8c",
	"Set/U=0.6/gamma=10":        "c3220dae9d403134076eb10a26191e92bd7bf7f8e4603a93267f081a801b8c3c",
	"Set/U=0.7/gamma=1-3":       "e1ffc389250678e1aaafca2b0a470117f57e9e42039089110267ec06b6419104",
	"Set/U=0.7/gamma=10":        "0adacbf8ac896eb389a479928c5b9af1fd05ad683fcbd50f315de0f8291bc740",
	"Set/U=0.8/gamma=1-3":       "435c32adc625b2d15ff766bb5efe5bd67e3c7e608c86d73be3cba685be9baa94",
	"Set/U=0.8/gamma=10":        "3129f4ecb08ae1f8d740a77f5a726f791c5b450d3656a1afc7cc1c8c188bcbe8",
	"Set/U=0.9/gamma=1-3":       "cdde9533f319a66665d6772fde680a2c704100cd1fe0d8b476e2664652cbc9f9",
	"Set/U=0.9/gamma=10":        "81fed7dcf88219f8e6a567b583076259851c2fea23655670a1b3ba41917560a0",
	"SetWithTargets/fig7-grid":  "21dcec9b21ae32fe5642b38df056c62aa65bd6fee899915edb17d36138462cfb",
}

// goldenUBounds and goldenGammas are the Set/MustSet grid: the Fig. 6/7
// utilization bounds under the Fig. 6 (γ ∈ [1, 3]) and Fig. 7 (γ = 10)
// uncertainty factors.
var (
	goldenUBounds = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	goldenGammas  = []struct {
		name     string
		min, max float64
	}{{"1-3", 1, 3}, {"10", 10, 10}}
)

// goldenDraws is how many sets each Set/MustSet case draws.
const goldenDraws = 25

// writeGolden appends one draw to h: its outcome and, when ok, the set's
// indented JSON.
func writeGolden(t *testing.T, h hash.Hash, s task.Set, ok bool) {
	t.Helper()
	if !ok {
		fmt.Fprintln(h, "fail")
		return
	}
	data, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(h, "ok")
	h.Write(data)
	fmt.Fprintln(h)
}

// goldenDigests draws every golden case and returns name → hex digest.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, g := range goldenGammas {
		for ui, u := range goldenUBounds {
			p := Defaults()
			p.GammaMin, p.GammaMax = g.min, g.max
			seed := int64(100 + ui)

			h := sha256.New()
			rnd := rand.New(rand.NewSource(seed))
			for n := 0; n < goldenDraws; n++ {
				s, ok := p.Set(rnd, u)
				writeGolden(t, h, s, ok)
			}
			got[fmt.Sprintf("Set/U=%.1f/gamma=%s", u, g.name)] = hex.EncodeToString(h.Sum(nil))

			h = sha256.New()
			rnd = rand.New(rand.NewSource(seed))
			for n := 0; n < goldenDraws; n++ {
				writeGolden(t, h, p.MustSet(rnd, u), true)
			}
			got[fmt.Sprintf("MustSet/U=%.1f/gamma=%s", u, g.name)] = hex.EncodeToString(h.Sum(nil))
		}
	}

	// A tight window and redraw budget, so Set's failure exits show up.
	p := Defaults()
	p.Tol, p.MaxAttempts = 0.004, 3
	h := sha256.New()
	rnd := rand.New(rand.NewSource(99))
	for n := 0; n < 4*goldenDraws; n++ {
		s, ok := p.Set(rnd, 0.6)
		writeGolden(t, h, s, ok)
	}
	got["Set/U=0.6/gamma=1-3/tight"] = hex.EncodeToString(h.Sum(nil))

	// SetWithTargets over Fig. 7's default (U_HI, U_LO) grid, seed and
	// per-(cell, draw) substreams, with γ = 10.
	var grid []float64
	for u := 0.1; u < 0.96; u += 0.1 {
		grid = append(grid, u)
	}
	p = Defaults()
	p.GammaMin, p.GammaMax = 10, 10
	h = sha256.New()
	for cell := 0; cell < len(grid)*len(grid); cell++ {
		uLO, uHI := grid[cell/len(grid)], grid[cell%len(grid)]
		for n := 0; n < 3; n++ {
			s, ok := p.SetWithTargets(SubRand(2015, cell, n), uHI, uLO, 0.025)
			writeGolden(t, h, s, ok)
		}
	}
	got["SetWithTargets/fig7-grid"] = hex.EncodeToString(h.Sum(nil))
	return got
}

func TestGeneratorGolden(t *testing.T) {
	got := goldenDigests(t)
	for name, digest := range got {
		want, ok := goldenSets[name]
		switch {
		case !ok:
			t.Errorf("no golden for %s (digest %s)", name, digest)
		case digest != want:
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
	for name := range goldenSets {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %s was not drawn", name)
		}
	}
}
