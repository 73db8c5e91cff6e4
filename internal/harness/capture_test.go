package harness_test

import (
	"bytes"
	"testing"

	"sforder/internal/engine"
	"sforder/internal/harness"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// standaloneCapture records b with no detector: the recorder is the
// engine's access checker itself.
func standaloneCapture(t *testing.T, b *workload.Benchmark, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := harness.Run(b, engine.Config{Detector: engine.NoDetector, Workers: workers, Record: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func captureEntries(t *testing.T, raw []byte) uint64 {
	t.Helper()
	c, err := trace.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return c.Entries
}

// TestCaptureHoldsExactlyTheDistinctAccesses pins the count the
// subsumption rule implies. mm(128,16) runs 512 leaf multiplications,
// each one strand reading a 16×16 tile of A, of B and of C and writing the
// tile of C back: 4 × 256 entries a leaf and nothing else, whoever records
// (the history's tap or the recorder alone) and however many workers run.
func TestCaptureHoldsExactlyTheDistinctAccesses(t *testing.T) {
	const want = 512 * 4 * 256
	for _, workers := range []int{1, harness.DefaultWorkers()} {
		raw, err := harness.RecordCapture(workload.MM(128, 16), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := captureEntries(t, raw); got != want {
			t.Errorf("full-mode tap, %d workers: %d entries, want %d", workers, got, want)
		}
		if got := captureEntries(t, standaloneCapture(t, workload.MM(128, 16), workers)); got != want {
			t.Errorf("standalone recorder, %d workers: %d entries, want %d", workers, got, want)
		}
	}
}

// TestCaptureIsDeterministicAtOneWorker: one worker executes a program in
// one order, and a strand's buffer drains its pages in first-touch order,
// so two recordings of the same program are the same bytes.
func TestCaptureIsDeterministicAtOneWorker(t *testing.T) {
	for _, b := range []*workload.Benchmark{workload.MM(32, 8), workload.Sort(2000, 64), workload.Pipeline(12, 4, 2)} {
		first, err := harness.RecordCapture(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		second, err := harness.RecordCapture(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: two full-mode captures at one worker differ", b.Name)
		}
		if !bytes.Equal(standaloneCapture(t, b, 1), standaloneCapture(t, b, 1)) {
			t.Errorf("%s: two standalone captures at one worker differ", b.Name)
		}
	}
}
