package kernel_test

import (
	"testing"

	"repro/internal/oracle"
)

// The boot-path equivalence tests are slices of the differential oracle's matrix
// (internal/oracle): its table, oracle.named, lists the workloads and axis
// values each runs, and the oracle compares every point with the
// workload's reference point.

func TestGoldenBootEquivalence(t *testing.T) { oracle.Slice(t) }

func TestBootOptionSourcesEquivalent(t *testing.T) { oracle.Slice(t) }

func TestBootCachedEquivalentToBoot(t *testing.T) { oracle.Slice(t) }

func TestForkEquivalence(t *testing.T) { oracle.Slice(t) }

func TestSelfModBlockEngineParity(t *testing.T) { oracle.Slice(t) }
