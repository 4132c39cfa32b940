package fleet

// This file keeps the fleet's first replicate sampler, which drew each
// release with ACET.Sample and Stream.Int63n and ordered the workload
// with a comparison sort, verbatim apart from its name, as the oracle for
// the sampler differential tests in sampler_test.go.

import (
	"sort"

	"mcspeedup/internal/gen"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/task"
)

// refSampleWorkload generates replicate r's arrival sequence into dst
// (resliced, capacity reused). Each task draws from its own
// (seed, replicate, task) substream — jittered sporadic releases at
// T(LO) spacing plus up to half a period of jitter, demands from the
// ACET bands — so the workload is a pure function of (Params, r),
// independent of scheduling order. The result is valid by construction
// for sim.RunWorkload: sorted, demands within caps, T(LO) spacing.
func refSampleWorkload(dst sim.Workload, p Params, r int) sim.Workload {
	var rnd gen.Stream
	for ti := range p.Set {
		tk := &p.Set[ti]
		rnd.Reseed(p.Seed, r, ti)
		period := tk.Period[task.LO]
		jitter := int64(period / 2)
		at := task.Time(rnd.Int63n(int64(period)))
		for at < p.Horizon {
			d := p.ACET.Sample(&rnd, tk.Crit, tk.WCET[task.LO], tk.WCET[task.HI])
			dst = append(dst, sim.Arrival{Task: ti, At: at, Demand: d})
			at += period
			if jitter > 0 {
				at += task.Time(rnd.Int63n(jitter + 1))
			}
		}
	}
	// (At, Task) is a strict total order here — a task's releases are
	// at least a period apart — so the unstable sort is deterministic.
	sort.Slice(dst, func(i, k int) bool {
		if dst[i].At != dst[k].At {
			return dst[i].At < dst[k].At
		}
		return dst[i].Task < dst[k].Task
	})
	return dst
}
