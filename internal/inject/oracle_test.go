package inject_test

import (
	"testing"

	"repro/internal/oracle"
)

// The injector deadline test is a slice of the differential oracle's matrix
// (internal/oracle): its table, oracle.named, lists the workloads and axis
// values each runs, and the oracle compares every point with the
// workload's reference point.

func TestInjectorDeadlineEquivalence(t *testing.T) { oracle.Slice(t) }
