package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmp/internal/scenario"
	"vmp/internal/serve"
)

// Submission kinds.
const (
	// kindFresh is a named spec never submitted before: the daemon
	// simulates it and makes a durable store put.
	kindFresh = iota
	// kindHit repeats a spec of the pre-seeded hit set: the daemon
	// answers it from a verified store read.
	kindHit
	// kindUnnamed is a fresh spec without a name, as a user posting
	// JSON by hand sends it. The daemon fingerprints it before naming
	// it, stores the result under the named fingerprint and answers
	// 500, so every unnamed submission fails; the benchmark shows that
	// defect instead of avoiding it.
	kindUnnamed
)

var kindNames = [...]string{"fresh", "hit", "unnamed"}

// round is one client's repeating sequence: computing and repeat
// submissions alternate, and one submission in eight is unnamed.
var round = []int{kindFresh, kindHit, kindFresh, kindHit, kindFresh, kindHit, kindUnnamed, kindHit}

// mixClients is the number of closed-loop clients.
const mixClients = 2

// daemonStarts is how many times a run opens the seeded store and
// starts listening; setup_s is their median. One start takes well under
// a millisecond, so many are cheap and steady the median.
const daemonStarts = 15

// hitSetSize is how many distinct specs the repeat submissions cycle
// through.
const hitSetSize = 8

// mixSpec is one vmpd submission: 2 boards of the macro geometry
// running the edit profile.
func mixSpec(name string, seed uint64, short bool) scenario.Spec {
	s := macroSpec(seed, short)
	s.Name = name
	s.Machine.Processors = 2
	s.Workload.Refs = 10_000
	if short {
		s.Workload.Refs = 500
	}
	return s
}

// splitmix is the SplitMix64 finalizer, used to derive distinct spec
// seeds from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// specSeed derives the seed of submission n of a kind from one client
// (client -1 for the hit set).
func specSeed(run uint64, kind, client, n int) uint64 {
	return splitmix(run ^ splitmix(uint64(kind)<<56|uint64(client+1)<<40|uint64(n)))
}

// daemon is an in-process vmpd behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	served chan error

	once    sync.Once
	stopErr error
}

// startDaemon opens the store (its recovery scan) and starts serving.
func startDaemon(cfg serve.Config) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the job runner, stops the listener and waits for both.
// Calls after the first return the first call's error.
func (d *daemon) stop() error {
	d.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		derr := d.srv.Drain(ctx)
		if err := d.http.Shutdown(ctx); err != nil {
			d.stopErr = err
			return
		}
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			d.stopErr = err
			return
		}
		d.stopErr = derr
	})
	return d.stopErr
}

// submission is one client-side record.
type submission struct {
	kind    int
	latency time.Duration
	failed  bool
	// refs is the simulated references behind a computed answer.
	refs uint64
}

// mixRun is the state shared by the clients of one vmpd-mix run.
type mixRun struct {
	o       options
	url     string
	hitSpec []scenario.Spec
	// hitRecord is each hit-set spec's stored record, as seeded.
	hitRecord [][]byte
	// next is each client's submission counter; it carries over from
	// one timed phase to the next so every fresh spec stays distinct.
	next [mixClients]int

	mu    sync.Mutex
	errs  []string
	wrong int
}

// verify checks one answer: the fingerprint is the spec's own, the
// record decodes, describes a clean run of that fingerprint and, for a
// hit, is the record the store was seeded with.
func (m *mixRun) verify(spec scenario.Spec, kind, hit int, r *serve.SpecResult) (uint64, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return 0, err
	}
	if r.Fingerprint != fp {
		return 0, fmt.Errorf("%s: fingerprint %s, want %s", spec.Name, r.Fingerprint, fp)
	}
	var cr scenario.CellResult
	if err := json.Unmarshal(r.Result, &cr); err != nil {
		return 0, fmt.Errorf("%s: record does not decode: %v", spec.Name, err)
	}
	switch {
	case cr.Fingerprint != fp:
		return 0, fmt.Errorf("%s: record fingerprint %s, want %s", spec.Name, cr.Fingerprint, fp)
	case cr.Err != "" || len(cr.Violations) > 0 || cr.Summary.Violations > 0:
		return 0, fmt.Errorf("%s: record reports a failed run", spec.Name)
	case kind == kindHit && !bytes.Equal(r.Result, m.hitRecord[hit]):
		return 0, fmt.Errorf("%s: record differs from the seeded one", spec.Name)
	}
	if r.Cached {
		return 0, nil
	}
	return cr.Summary.Refs, nil
}

// note keeps the first few problems for the printed notes.
func (m *mixRun) note(wrong bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if wrong {
		m.wrong++
	}
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// submit sends one submission and checks its answer.
func (m *mixRun) submit(cl *serve.Client, client, kind, n int) submission {
	var spec scenario.Spec
	// Hits sit at odd positions of a round; walk the whole hit set.
	hit := (n/2 + client) % hitSetSize
	switch kind {
	case kindFresh:
		spec = mixSpec(fmt.Sprintf("fresh-c%d-%d", client, n), specSeed(m.o.seed, kind, client, n), m.o.short)
	case kindUnnamed:
		spec = mixSpec("", specSeed(m.o.seed, kind, client, n), m.o.short)
	case kindHit:
		spec = m.hitSpec[hit]
	}
	start := time.Now()
	r, err := cl.RunSpec(context.Background(), spec)
	s := submission{kind: kind, latency: time.Since(start)}
	if err != nil {
		s.failed = true
		var se *serve.StatusError
		if kind != kindUnnamed || !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
			m.note(false, fmt.Errorf("%s submission %d: %v", kindNames[kind], n, err))
		}
		return s
	}
	if s.refs, err = m.verify(spec, kind, hit, r); err != nil {
		s.failed = true
		m.note(true, err)
	}
	return s
}

// phase runs every client's closed loop for window, each client
// finishing its current round, and returns the submissions and the
// phase's wall time.
func (m *mixRun) phase(window time.Duration, sp *spans) ([]submission, time.Duration) {
	var wg sync.WaitGroup
	per := make([][]submission, mixClients)
	start := time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			cl := &serve.Client{BaseURL: m.url, ClientID: fmt.Sprintf("c%d", c), HTTP: &http.Client{Transport: tr}}
			for len(per[c]) == 0 || time.Since(start) < window {
				for _, kind := range round {
					n := m.next[c]
					m.next[c]++
					t := time.Now()
					s := m.submit(cl, c, kind, n)
					if sp != nil {
						sp.add(c<<32|n, "submit."+kindNames[kind], "", t, t.Add(s.latency), 0)
					}
					per[c] = append(per[c], s)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []submission
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// runVMPDMix measures the serving workload: two closed-loop clients
// posting specs with ?wait=1 to an in-process daemon over loopback.
func runVMPDMix(o options) (*result, error) {
	dir, err := os.MkdirTemp(o.workDir, "vmpd-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The quota sits far above what two closed-loop clients can offer,
	// so admission never sheds this traffic.
	cfg := serve.Config{StoreDir: dir, QuotaRate: 1e6, QuotaBurst: 1e6}
	m := &mixRun{o: o}
	for i := 0; i < hitSetSize; i++ {
		m.hitSpec = append(m.hitSpec, mixSpec(fmt.Sprintf("hit-%d", i), specSeed(o.seed, kindHit, -1, i), o.short))
	}
	if err := m.seed(cfg); err != nil {
		return nil, err
	}

	// Set-up is reopening the seeded store (its recovery scan) plus the
	// listener; it is repeated and the last daemon serves the run.
	var d *daemon
	var setups []float64
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = startDaemon(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()
	m.url = d.url

	res := &result{values: map[string]float64{"setup_s": quantile(setups, 0.5)}}
	window := o.seconds
	if o.trace {
		window /= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	subs, elapsed := m.phase(window, nil)
	runtime.ReadMemStats(&after)
	m.summarize(subs, elapsed, after.TotalAlloc-before.TotalAlloc, res)
	var traced []submission
	if o.trace {
		if traced, err = m.traced(o, window, res); err != nil {
			return nil, err
		}
	}
	if err := m.scrape(d, res); err != nil {
		return nil, err
	}
	if o.trace {
		m.ledger(append(subs, traced...), res)
	}
	for _, e := range m.errs {
		res.notes = append(res.notes, "gate: "+e)
	}
	res.Correct = m.wrong == 0
	return res, nil
}

// traced repeats the closed loop for window under a CPU profile, with a
// span per submission, and counts its submissions in res.
func (m *mixRun) traced(o options, window time.Duration, res *result) ([]submission, error) {
	sp := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	subs, elapsed := m.phase(window, sp)
	pprof.StopCPUProfile()
	self, samples, err := selfShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	v := res.values
	for k, s := range self {
		v["self."+k] = s
	}
	v["trace.cpu_samples"] = float64(samples)
	v["trace.overhead_pct"] = 100 * (v["jobs_per_s"]*elapsed.Seconds()/float64(len(subs)) - 1)
	res.Attempted += len(subs)
	for _, s := range subs {
		if s.failed {
			res.Failed++
		}
	}
	return subs, sp.write(o, res)
}

// scrape drains the daemon, reads its counters and histograms, and
// stops it. /metricsz and /statsz are read only after Drain: the daemon
// records a job's run span and histograms after it publishes the
// terminal state, so an earlier read can miss the last job.
func (m *mixRun) scrape(d *daemon, res *result) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return err
	}
	cl := &serve.Client{BaseURL: d.url, HTTP: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}}
	stats, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	hist, err := scrapeHistograms(ctx, d.url)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if stats.DeterminismMismatches > 0 {
		m.note(true, fmt.Errorf("daemon counted %d determinism mismatches", stats.DeterminismMismatches))
	}
	v := res.values
	v["serve.computed_cells"] = float64(stats.ComputedCells)
	v["serve.cache_hit_cells"] = float64(stats.CacheHitCells)
	v["serve.shed"] = float64(stats.Shed)
	v["serve.determinism_mismatches"] = float64(stats.DeterminismMismatches)
	v["serve.queue_wait_ms"] = 1000 * hist["vmpd_job_queue_wait_seconds"]
	v["serve.run_ms"] = 1000 * hist["vmpd_job_run_seconds"]
	v["serve.store_put_ms"] = 1000 * hist["vmpd_store_put_seconds"]
	return nil
}

// ledger sets the daemon's mean queue wait and run time beside the
// client-side latency of the submissions that made jobs (fresh and
// unnamed ones; each is one job) and reports what neither covers.
func (m *mixRun) ledger(subs []submission, res *result) {
	var sum time.Duration
	jobs := 0
	for _, s := range subs {
		if s.kind != kindHit {
			sum += s.latency
			jobs++
		}
	}
	v := res.values
	opS := ratio(sum.Seconds(), float64(jobs))
	v["ledger.op_s"] = opS
	v["ledger.residual_pct"] = 100 * ratio(opS-(v["serve.queue_wait_ms"]+v["serve.run_ms"])/1000, opS)
}

// seed computes the hit set through a daemon on the empty store and
// keeps each record for the hit check.
func (m *mixRun) seed(cfg serve.Config) error {
	d, err := startDaemon(cfg)
	if err != nil {
		return err
	}
	cl := &serve.Client{BaseURL: d.url, HTTP: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}}
	for i, spec := range m.hitSpec {
		r, err := cl.RunSpec(context.Background(), spec)
		if err == nil {
			_, err = m.verify(spec, kindFresh, i, r)
		}
		if err != nil {
			d.stop()
			return fmt.Errorf("seeding the hit set: %w", err)
		}
		m.hitRecord = append(m.hitRecord, r.Result)
	}
	return d.stop()
}

// summarize turns one untraced phase into the end-to-end metrics.
func (m *mixRun) summarize(subs []submission, elapsed time.Duration, alloc uint64, res *result) {
	var compute, hits []float64
	var refs uint64
	for _, s := range subs {
		res.Attempted++
		if s.failed {
			res.Failed++
			continue
		}
		refs += s.refs
		switch s.kind {
		case kindFresh:
			compute = append(compute, ms(s.latency))
		case kindHit:
			hits = append(hits, ms(s.latency))
		}
	}
	v := res.values
	v["sim_refs_per_s"] = float64(refs) / elapsed.Seconds()
	v["jobs_per_s"] = float64(len(subs)) / elapsed.Seconds()
	v["compute_p50_ms"] = quantile(compute, 0.5)
	v["alloc_mb"] = float64(alloc) / float64(len(subs)) / 1e6
	v["ok_share"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	v["serve.compute_p95_ms"] = quantile(compute, 0.95)
	v["serve.hit_p50_ms"] = quantile(hits, 0.5)
	v["serve.hit_p95_ms"] = quantile(hits, 0.95)
	v["serve.hit_samples"] = float64(len(hits))
	v["bench.compute_samples"] = float64(len(compute))
	res.notes = append(res.notes,
		fmt.Sprintf("%d clients, %d submissions in %.2f s; unnamed share %d/%d by design",
			mixClients, len(subs), elapsed.Seconds(), 1, len(round)),
		tailNote("compute latency", 0.5, len(compute)),
		tailNote("compute latency", 0.95, len(compute)),
		tailNote("hit latency", 0.5, len(hits)),
		tailNote("hit latency", 0.95, len(hits)),
		fmt.Sprintf("%-30s %16.6f ms", "compute_p95_ms", v["serve.compute_p95_ms"]),
		fmt.Sprintf("%-30s %16.6f ms", "hit_p50_ms", v["serve.hit_p50_ms"]),
		fmt.Sprintf("%-30s %16.6f ms", "hit_p95_ms", v["serve.hit_p95_ms"]))
}

// scrapeHistograms reads /metricsz and returns each histogram's mean
// (sum divided by count) by family name.
func scrapeHistograms(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz: %s", resp.Status)
	}
	sums, counts := map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if fam, ok := strings.CutSuffix(name, "_sum"); ok {
			sums[fam] = x
		} else if fam, ok := strings.CutSuffix(name, "_count"); ok {
			counts[fam] = x
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	means := map[string]float64{}
	for fam, n := range counts {
		means[fam] = ratio(sums[fam], n)
	}
	return means, nil
}
