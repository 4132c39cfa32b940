package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mcspeedup/internal/rat"
)

// goldenSummaries pins the exact bytes of Summary.JSON() for fixed
// configurations: the SHA-256 of each fleet's summary. The digests were
// taken from the rational-time simulator with the sort-based sampler, so
// the integer-tick simulator and the merged per-task sampler are held
// to that output byte for byte. Any change here changes what /v1/fleet
// and mcs-sim -fleet print.
var goldenSummaries = map[string]string{
	"fms/s=2/default-acet":             "6124ccedd610eea59e76b8635f651b34b9cd08bddeef5644e964e096371dd1f1",
	"fms/s=3/2/hot-acet":               "0763143ea4b2608d55d733f4b67af3bb74de869a117c5c7a8adec91660548abe",
	"fms/s=2/hot-acet/budget=7/3":      "dcd87cf4d51a1250b4eeaa6c9433b687c872aef0a4ad1376539ca04e76290081",
	"fms/s=2/hot-acet/budget=4":        "4420c2f9bf7b4c827f9c2a3b1e53803a5a6164d08e834f2f46d90c64143b8588",
	"gen/s=2/3/overrun=0.3":            "db010962f5c306f144ef09766ed33b1e3e281f6ee57564c12167cb7af9ebfe17",
	"gen/s=2/3/overrun=0.3/budget=5/2": "a38f972e1eddda00eb118fceb6ec3e998019e299d122ec6f8da72ae7e9b073a5",
}

// goldenParams returns the golden configurations by name. Each runs
// across a chunk boundary so the chunked reduction is part of the pin.
func goldenParams(t *testing.T) map[string]Params {
	t.Helper()
	set := preparedFMS(t)
	base := Params{Set: set, Runs: chunkSize + 77, Seed: 11, Speedup: rat.Two, Horizon: 4 * set.MaxPeriod()}
	out := map[string]Params{}

	p := base
	out["fms/s=2/default-acet"] = p

	p = base
	p.Speedup = rat.New(3, 2)
	p.ACET = hotACET()
	out["fms/s=3/2/hot-acet"] = p

	p = base
	p.ACET = hotACET()
	p.Budget = rat.New(7, 3)
	out["fms/s=2/hot-acet/budget=7/3"] = p

	p = base
	p.ACET = hotACET()
	p.Budget = rat.FromInt64(4)
	out["fms/s=2/hot-acet/budget=4"] = p

	// A generated set slowed below nominal speed in HI mode, so runs
	// miss deadlines, with and without a fractional budget.
	gs := genSet(t, 1)
	a := hotACET()
	a.OverrunProb = 0.3
	slow := Params{
		Set: gs, Runs: chunkSize + 77, Seed: 11, Speedup: rat.New(2, 3),
		Horizon: 4 * gs.MaxPeriod(), ACET: a,
	}
	out["gen/s=2/3/overrun=0.3"] = slow
	slow.Budget = rat.New(5, 2)
	out["gen/s=2/3/overrun=0.3/budget=5/2"] = slow
	return out
}

func TestFleetGolden(t *testing.T) {
	for name, p := range goldenParams(t) {
		for _, workers := range []int{1, 2} {
			p.Workers = workers
			s, err := Run(p)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			data, err := s.JSON()
			if err != nil {
				t.Fatalf("%s workers=%d: marshal: %v", name, workers, err)
			}
			sum := sha256.Sum256(data)
			got := hex.EncodeToString(sum[:])
			if want := goldenSummaries[name]; got != want {
				t.Errorf("%s workers=%d: summary digest %s, want %s\n%s", name, workers, got, want, data)
			}
		}
	}
}
