package bench_test

import (
	"testing"

	"repro/internal/oracle"
)

// The equivalence tests of the benchmark suites are slices of the differential oracle's matrix
// (internal/oracle): its table, oracle.named, lists the workloads and axis
// values each runs, and the oracle compares every point with the
// workload's reference point.

func TestTable1SuiteCacheEquivalence(t *testing.T) { oracle.Slice(t) }

func TestAttackScenariosCacheEquivalence(t *testing.T) { oracle.Slice(t) }

func TestFuzzReportCacheInvariance(t *testing.T) { oracle.Slice(t) }

func TestTable1SuiteBlockEquivalence(t *testing.T) { oracle.Slice(t) }

func TestAttackScenariosBlockEquivalence(t *testing.T) { oracle.Slice(t) }

func TestFuzzReportBlockInvariance(t *testing.T) { oracle.Slice(t) }

func TestTracedTable1SuiteBitIdentical(t *testing.T) { oracle.Slice(t) }

func TestAttackScenariosTracedBitIdentical(t *testing.T) { oracle.Slice(t) }

func TestFuzzTraceWorkerInvariance(t *testing.T) { oracle.Slice(t) }

func TestMultiProbeCacheEquivalence(t *testing.T) { oracle.Slice(t) }

func TestConcurrentForksShareTranslations(t *testing.T) { oracle.Slice(t) }
