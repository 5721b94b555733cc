package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vmp/internal/core"
	"vmp/internal/scenario"
)

// testServer boots a daemon on an httptest listener. mutate tweaks the
// config (nil for defaults); the store root is a fresh temp dir.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		StoreDir:  filepath.Join(t.TempDir(), "store"),
		Workers:   2,
		JobBudget: 30 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallSpec is a fast, deterministic single-cell workload.
func smallSpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Refs: 3_000},
	}
}

// livelockServeSpec deterministically trips the simulator's livelock
// hard limit (every abortable transaction aborted, tiny retry budget).
func livelockServeSpec() scenario.Spec {
	return scenario.Spec{
		Name: "livelock-serve",
		Machine: scenario.MachineSpec{
			Processors: 1,
			Retry:      &core.RetryPolicy{BackoffShiftCap: 2, StarveThreshold: 4, HardLimit: 8},
		},
		Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Refs: 1_000},
		Faults:   "abort=1",
		Obs:      scenario.ObsSpec{RingSize: 128},
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post issues a POST with an optional client id header.
func post(t *testing.T, url string, body []byte, client string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func stats(t *testing.T, ts *httptest.Server) StatsView {
	t.Helper()
	resp, body := get(t, ts.URL+"/statsz")
	if resp.StatusCode != 200 {
		t.Fatalf("/statsz = %d: %s", resp.StatusCode, body)
	}
	var sv StatsView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatalf("statsz decode: %v\n%s", err, body)
	}
	return sv
}

func TestSpecComputeThenCacheHitByteIdentical(t *testing.T) {
	_, ts := testServer(t, nil)
	body := mustJSON(t, smallSpec("cache-me"))

	resp, data := post(t, ts.URL+"/v1/specs?wait=1", body, "alice")
	if resp.StatusCode != 200 {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, data)
	}
	var first specResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first submission claims a cache hit")
	}
	if !ValidFingerprint(first.Fingerprint) {
		t.Fatalf("fingerprint %q malformed", first.Fingerprint)
	}

	resp, data = post(t, ts.URL+"/v1/specs", body, "alice")
	if resp.StatusCode != 200 {
		t.Fatalf("second submit = %d: %s", resp.StatusCode, data)
	}
	var second specResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat submission was not answered from the cache")
	}
	// The determinism contract, end to end: the cached answer is
	// byte-identical to the freshly computed one.
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result differs from computed result:\n%s\nvs\n%s", first.Result, second.Result)
	}

	sv := stats(t, ts)
	if sv.ComputedCells != 1 || sv.CacheHitCells < 1 {
		t.Errorf("stats: computed=%d hits=%d, want 1 computed and >=1 hit", sv.ComputedCells, sv.CacheHitCells)
	}
	if sv.DeterminismMismatches != 0 {
		t.Errorf("determinism_mismatches = %d", sv.DeterminismMismatches)
	}
}

func testGrid(name string) scenario.Grid {
	return scenario.Grid{
		Name: name,
		Base: smallSpec(name),
		Axes: []scenario.Axis{
			{Path: "machine.processors", Values: scenario.Values(1, 2)},
		},
	}
}

// waitJob polls a job to a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != 200 {
			t.Fatalf("job poll = %d: %s", resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobView{}
}

func TestGridSubmitThenRepeatIsAllCacheHits(t *testing.T) {
	_, ts := testServer(t, nil)
	body := mustJSON(t, testGrid("sweep"))

	resp, data := post(t, ts.URL+"/v1/grids", body, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("grid submit = %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cells != 2 || len(sub.Fingerprints) != 2 {
		t.Fatalf("submit = %+v, want 2 cells", sub)
	}
	v := waitJob(t, ts, sub.Job)
	if v.State != JobDone || v.DoneCells != 2 || v.FailedCells != 0 {
		t.Fatalf("job = %+v, want done with 2 cells", v)
	}

	// Every cell is now individually addressable.
	results := make([][]byte, 2)
	for i, fp := range sub.Fingerprints {
		resp, data := get(t, ts.URL+"/v1/results/"+fp)
		if resp.StatusCode != 200 {
			t.Fatalf("result %s = %d: %s", fp, resp.StatusCode, data)
		}
		results[i] = data
	}

	// The repeat submission never touches the queue: one synchronous
	// 200 assembled from the store.
	resp, data = post(t, ts.URL+"/v1/grids", body, "alice")
	if resp.StatusCode != 200 {
		t.Fatalf("repeat grid submit = %d: %s", resp.StatusCode, data)
	}
	var cachedResp struct {
		Cached bool                 `json:"cached"`
		Sweep  scenario.SweepResult `json:"sweep"`
	}
	if err := json.Unmarshal(data, &cachedResp); err != nil {
		t.Fatal(err)
	}
	if !cachedResp.Cached || len(cachedResp.Sweep.Cells) != 2 {
		t.Fatalf("repeat grid = %s", data)
	}
	for i, cr := range cachedResp.Sweep.Cells {
		stored := mustJSON(t, cr)
		var direct scenario.CellResult
		if err := json.Unmarshal(results[i], &direct); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, mustJSON(t, direct)) {
			t.Errorf("cell %d: cached sweep differs from stored record", i)
		}
	}
	sv := stats(t, ts)
	if sv.ComputedCells != 2 || sv.CacheHitCells < 2 {
		t.Errorf("stats: computed=%d hits=%d", sv.ComputedCells, sv.CacheHitCells)
	}
}

func TestQuotaExhaustionGets429(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.QuotaRate = 0.01 // effectively no refill within the test
		c.QuotaBurst = 2
	})
	var last *http.Response
	var lastBody []byte
	for i := 0; i < 3; i++ {
		last, lastBody = post(t, ts.URL+"/v1/specs?wait=1", mustJSON(t, smallSpec(fmt.Sprintf("q-%d", i))), "greedy")
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d (%s), want 429", last.StatusCode, lastBody)
	}
	if last.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	// A different client is unaffected.
	resp, body := post(t, ts.URL+"/v1/specs?wait=1", mustJSON(t, smallSpec("other-client")), "patient")
	if resp.StatusCode != 200 {
		t.Fatalf("independent client = %d: %s", resp.StatusCode, body)
	}
	if sv := stats(t, ts); sv.QuotaRejected < 1 {
		t.Errorf("quota_rejected = %d, want >= 1", sv.QuotaRejected)
	}
}

// blockingRunCells parks until the job context dies — the stand-in for
// an arbitrarily slow sweep.
func blockingRunCells(name string, cells []scenario.Cell, opts scenario.RunOptions) (*scenario.SweepResult, error) {
	<-opts.Ctx.Done()
	return nil, opts.Ctx.Err()
}

// blockRunCells installs blockingRunCells as s's sweep entry point and
// returns a wait function that returns once the runner has entered it
// (the runner sets jobActive before that), failing the test with msg
// after 5 s.
func blockRunCells(t *testing.T, s *Server) (wait func(msg string)) {
	entered := make(chan struct{})
	var once sync.Once
	s.runCells = func(name string, cells []scenario.Cell, opts scenario.RunOptions) (*scenario.SweepResult, error) {
		once.Do(func() { close(entered) })
		return blockingRunCells(name, cells, opts)
	}
	return func(msg string) {
		t.Helper()
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal(msg)
		}
	}
}

func TestQueueSaturationSheds429(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.QueueDepth = 1 })
	waitRunning := blockRunCells(t, s)

	// First job: picked up by the runner, parks.
	resp, body := post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("slow-0")), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 0 = %d: %s", resp.StatusCode, body)
	}
	waitRunning("runner never picked up the first job")
	// Second job fills the queue; third is shed.
	resp, body = post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("slow-1")), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 = %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("slow-2")), "c")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 2 = %d (%s), want 429 queue-full", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 429 carries no Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("shed body = %s", body)
	}
	sv := stats(t, ts)
	if sv.Shed < 1 || sv.QueueDepth != 1 {
		t.Errorf("stats: shed=%d queue_depth=%d", sv.Shed, sv.QueueDepth)
	}
}

func TestShedModeStillServesCacheHits(t *testing.T) {
	s, ts := testServer(t, nil)
	body := mustJSON(t, smallSpec("precomputed"))
	resp, data := post(t, ts.URL+"/v1/specs?wait=1", body, "c")
	if resp.StatusCode != 200 {
		t.Fatalf("precompute = %d: %s", resp.StatusCode, data)
	}

	s.SetShedding(true)
	// The cached spec is still answered...
	resp, data = post(t, ts.URL+"/v1/specs", body, "c")
	if resp.StatusCode != 200 {
		t.Fatalf("cache hit under shedding = %d: %s", resp.StatusCode, data)
	}
	var sr specResponse
	json.Unmarshal(data, &sr)
	if !sr.Cached {
		t.Error("shed-mode answer not marked cached")
	}
	// ...while new compute is rejected.
	resp, data = post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("fresh-under-shed")), "c")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("compute under shedding = %d (%s), want 429", resp.StatusCode, data)
	}
	sv := stats(t, ts)
	if !sv.Shedding || sv.Shed < 1 {
		t.Errorf("stats: shedding=%v shed=%d", sv.Shedding, sv.Shed)
	}
}

func TestJobBudgetDeadlineFailsJob(t *testing.T) {
	s, ts := testServer(t, nil)
	s.runCells = blockingRunCells

	resp, data := post(t, ts.URL+"/v1/specs?wait=1&budget_ms=80", mustJSON(t, smallSpec("stuck")), "c")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("stuck job = %d (%s), want 500 with the job record", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != JobFailed || !strings.Contains(v.Err, "budget") {
		t.Fatalf("job = state %s, err %q; want failed on budget", v.State, v.Err)
	}
}

func TestSimulatorFaultIsContainedAndServiceSurvives(t *testing.T) {
	_, ts := testServer(t, nil)

	resp, data := post(t, ts.URL+"/v1/specs?wait=1", mustJSON(t, livelockServeSpec()), "c")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("livelock job = %d (%s), want 500", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != JobFailed || v.FailedCells != 1 {
		t.Fatalf("job = %+v, want failed with 1 failed cell", v)
	}
	if !strings.Contains(v.Err, "livelock") {
		t.Errorf("job error %q does not name the livelock", v.Err)
	}
	if !strings.Contains(v.Dump, "FLIGHT RECORDER DUMP") {
		t.Errorf("failed job carries no flight-recorder dump (dump = %.120q)", v.Dump)
	}

	// The daemon is still fully serviceable.
	resp, data = post(t, ts.URL+"/v1/specs?wait=1", mustJSON(t, smallSpec("after-the-fault")), "c")
	if resp.StatusCode != 200 {
		t.Fatalf("post-fault submit = %d: %s", resp.StatusCode, data)
	}
	sv := stats(t, ts)
	if sv.FaultedCells != 1 {
		t.Errorf("faulted_cells = %d, want 1", sv.FaultedCells)
	}
}

func TestCorruptionIsRepairedOnResubmit(t *testing.T) {
	s, ts := testServer(t, nil)
	body := mustJSON(t, smallSpec("repairable"))

	resp, data := post(t, ts.URL+"/v1/specs?wait=1", body, "c")
	if resp.StatusCode != 200 {
		t.Fatalf("compute = %d: %s", resp.StatusCode, data)
	}
	var first specResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the stored record.
	path := s.store.objectPath(first.Fingerprint)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resubmitting detects the corruption, quarantines, recomputes,
	// repairs — and the repaired bytes match the original exactly.
	resp, data = post(t, ts.URL+"/v1/specs?wait=1", body, "c")
	if resp.StatusCode != 200 {
		t.Fatalf("repair submit = %d: %s", resp.StatusCode, data)
	}
	var second specResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("corrupt record was served as a cache hit")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("repaired result differs from the original:\n%s\nvs\n%s", first.Result, second.Result)
	}

	sv := stats(t, ts)
	if sv.RepairedCells != 1 {
		t.Errorf("repaired_cells = %d, want 1", sv.RepairedCells)
	}
	if sv.Store.Corruptions != 1 || sv.Store.Quarantined != 1 {
		t.Errorf("store stats = %+v, want 1 corruption / 1 quarantined", sv.Store)
	}
	if sv.DeterminismMismatches != 0 {
		t.Errorf("determinism_mismatches = %d", sv.DeterminismMismatches)
	}
	// And the store is serving the repaired record on the read path.
	resp, data = get(t, ts.URL+"/v1/results/"+first.Fingerprint)
	if resp.StatusCode != 200 || !bytes.Equal(data, first.Result) {
		t.Errorf("result endpoint after repair = %d, identical=%v", resp.StatusCode, bytes.Equal(data, first.Result))
	}
}

func TestResultEndpointErrors(t *testing.T) {
	s, ts := testServer(t, nil)
	if resp, _ := get(t, ts.URL+"/v1/results/not-a-fingerprint"); resp.StatusCode != 400 {
		t.Errorf("malformed fp = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/results/0123456789abcdef"); resp.StatusCode != 404 {
		t.Errorf("unknown fp = %d, want 404", resp.StatusCode)
	}
	// A corrupt record 404s (after quarantine) rather than serving bad
	// bytes.
	if err := s.store.Put(fpA, []byte("record")); err != nil {
		t.Fatal(err)
	}
	corruptObject(t, s.store, fpA)
	resp, body := get(t, ts.URL+"/v1/results/"+fpA)
	if resp.StatusCode != 404 || !strings.Contains(string(body), "quarantined") {
		t.Errorf("corrupt fp = %d (%s), want 404 naming the quarantine", resp.StatusCode, body)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := testServer(t, nil)
	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain of an idle server: %v", err)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained = %d, want 503", resp.StatusCode)
	}
	resp, _ := post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("late")), "c")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while drained = %d, want 503", resp.StatusCode)
	}
}

func TestDrainDeadlineCancelsStuckJobs(t *testing.T) {
	s, ts := testServer(t, nil)
	waitRunning := blockRunCells(t, s)

	resp, data := post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("wedged")), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	json.Unmarshal(data, &sub)
	waitRunning("runner never started the job")

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	j := s.lookupJob(sub.Job)
	if j == nil || !j.state().Terminal() {
		t.Fatalf("wedged job not terminated by the drain deadline (state %v)", j.state())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.QueueDepth = 2 })
	waitRunning := blockRunCells(t, s)

	post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("runner-hog")), "c")
	waitRunning("runner never started")
	resp, data := post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("queued-victim")), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	json.Unmarshal(data, &sub)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.Job, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	json.NewDecoder(dresp.Body).Decode(&v)
	dresp.Body.Close()
	if v.State != JobCanceled {
		t.Fatalf("cancelled queued job state = %s, want canceled", v.State)
	}
}

func TestEventsStreamNDJSON(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, data := post(t, ts.URL+"/v1/grids", mustJSON(t, testGrid("streamed")), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	json.Unmarshal(data, &sub)

	eresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var kinds []string
	cells := 0
	dec := json.NewDecoder(eresp.Body)
	for {
		var ev JobEvent
		if err := dec.Decode(&ev); err != nil {
			break // stream closes at the terminal event
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "cell" {
			cells++
			if !ValidFingerprint(ev.Fingerprint) {
				t.Errorf("cell event with bad fingerprint: %+v", ev)
			}
		}
	}
	if len(kinds) == 0 || kinds[0] != "queued" {
		t.Fatalf("event kinds = %v, want to start with queued", kinds)
	}
	if kinds[len(kinds)-1] != "done" {
		t.Errorf("event kinds = %v, want to end with done", kinds)
	}
	if cells != 2 {
		t.Errorf("saw %d cell events, want 2", cells)
	}
}

func TestBadSubmissionsAreRejected(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.MaxCells = 1 })
	if resp, _ := post(t, ts.URL+"/v1/specs", []byte("{not json"), "c"); resp.StatusCode != 400 {
		t.Errorf("malformed spec = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/grids", []byte(`{"base":{},"axes":[{"path":"","values":[1]}]}`), "c"); resp.StatusCode != 400 {
		t.Errorf("bad grid axis = %d, want 400", resp.StatusCode)
	}
	// A grid over the cell cap is refused before any work happens.
	resp, body := post(t, ts.URL+"/v1/grids", mustJSON(t, testGrid("too-big")), "c")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized grid = %d (%s), want 413", resp.StatusCode, body)
	}
}
