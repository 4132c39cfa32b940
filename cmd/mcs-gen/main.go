// Command mcs-gen emits a random dual-criticality task set as JSON,
// following the generation protocol of the paper's experimental section
// (reference [4]: grow until a target system utilization is met).
//
// Usage:
//
//	mcs-gen [flags] > taskset.json
//
//	-u float        target average utilization (U^LO+U^HI)/2 (default 0.6)
//	-seed int       RNG seed (default 1)
//	-gamma-min/max  WCET uncertainty range (default 1..3)
//	-example        emit the paper's Table-I example instead
//	-fms            emit the flight-management-system case study (§VI.A)
//	-gamma float    WCET uncertainty factor for -fms (default 2)
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"mcspeedup"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcs-gen: ")
	var (
		uBound   = flag.Float64("u", 0.6, "target average system utilization")
		seed     = flag.Int64("seed", 1, "random seed")
		gammaMin = flag.Float64("gamma-min", 1, "minimum C(HI)/C(LO)")
		gammaMax = flag.Float64("gamma-max", 3, "maximum C(HI)/C(LO)")
		example  = flag.Bool("example", false, "emit the paper's Table-I example set")
		fms      = flag.Bool("fms", false, "emit the flight-management-system case study")
		gamma    = flag.Float64("gamma", 2, "WCET uncertainty factor γ for -fms")
	)
	flag.Parse()

	var set mcspeedup.Set
	switch {
	case *example:
		set = mcspeedup.TableISet()
	case *fms:
		var err error
		set, err = mcspeedup.FMSTasks(mcspeedup.RatFromFloat(*gamma))
		if err != nil {
			log.Fatal(err)
		}
	default:
		if *uBound <= 0 || *uBound >= 1 {
			log.Fatalf("target utilization %g outside (0,1)", *uBound)
		}
		p := mcspeedup.DefaultGenerator()
		p.GammaMin, p.GammaMax = *gammaMin, *gammaMax
		var err error
		if set, err = p.DrawSet(rand.New(rand.NewSource(*seed)), *uBound); err != nil {
			log.Fatal(err)
		}
	}

	data, err := set.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d tasks, U(LO)=%.3f U(HI)=%.3f\n",
		len(set), set.Util(mcspeedup.LO).Float64(), set.Util(mcspeedup.HI).Float64())
}
