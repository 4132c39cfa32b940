// Package server exercises metricscheck: the import path places it in
// the analyzer's scope.
package server

import (
	"fmt"
	"strings"
)

func render() string {
	var b strings.Builder
	b.WriteString("# TYPE mcs_good_total counter\n")
	fmt.Fprintf(&b, "mcs_good_total %d\n", 1)
	b.WriteString("# TYPE mcs_lat_seconds histogram\n")
	fmt.Fprintf(&b, "mcs_lat_seconds_sum %g\n", 0.5)
	b.WriteString("# TYPE mcs_dup_total counter\n")
	b.WriteString("# TYPE mcs_dup_total counter\n") // want `registered more than once`
	fmt.Fprintf(&b, "mcs_dup_total %d\n", 1)
	fmt.Fprintf(&b, "mcs_phantom_total %d\n", 2)         // want `rendered but never registered`
	b.WriteString("# TYPE mcs_untested_total counter\n") // want `not asserted in any of the package's tests`
	fmt.Fprintf(&b, "mcs_untested_total %d\n", 3)
	return b.String()
}
