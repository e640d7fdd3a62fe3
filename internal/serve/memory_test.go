package serve

import (
	"io"
	"net/http"
	"runtime"
	"testing"
)

// jobHeapBudget bounds the live heap one finished job keeps in a
// daemon's job table: its record, result, span forest and progress
// events. A wan job publishes about 20 events; stored at their size
// they take a few KiB, where a ring preallocated to its 1,024-event
// cap took 176 KiB.
const jobHeapBudget = 64 << 10

// TestPerJobHeapBudget runs a table's worth of wan jobs through a
// durable server the way a client does (submit, read the SSE stream to
// its end, fetch the result) and bounds the heap retained per finished
// job. Part of `make bench-alloc`.
func TestPerJobHeapBudget(t *testing.T) {
	const jobs = 64
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), MaxJobs: jobs + 1})
	run := func() {
		j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", code)
		}
		resp, err := http.Get(ts.URL + j.Links.Events)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitJob(t, ts, j.ID); fin.State != StateDone {
			t.Fatalf("job %s state = %q (error %q), want done", j.ID, fin.State, fin.Error)
		}
	}
	// One warm-up job registers the metrics, fills the type caches and
	// opens the keep-alive connection, which later jobs only reuse.
	run()
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		run()
	}
	perJob := (liveHeap() - before) / jobs
	t.Logf("%d jobs retain %.1f KiB each (budget %d KiB)", jobs, float64(perJob)/1024, jobHeapBudget>>10)
	if perJob > jobHeapBudget {
		t.Errorf("a finished job retains %d B of heap, budget %d B", perJob, jobHeapBudget)
	}
}

// liveHeap returns the bytes of heap objects still reachable after a
// full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
