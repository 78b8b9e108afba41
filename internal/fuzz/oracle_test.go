package fuzz_test

import (
	"testing"

	"repro/internal/oracle"
)

// The campaign invariance tests are slices of the differential oracle's matrix
// (internal/oracle): its table, oracle.named, lists the workloads and axis
// values each runs, and the oracle compares every point with the
// workload's reference point.

func TestDeterministicReport(t *testing.T) { oracle.Slice(t) }

func TestWorkerCountInvariance(t *testing.T) { oracle.Slice(t) }

func TestWarmStartZeroBuildsByteIdentical(t *testing.T) { oracle.Slice(t) }
