package serve

import (
	"context"
	"sync"
	"time"

	"vmp/internal/obs"
	"vmp/internal/telemetry"
)

// JobState is a job's lifecycle state. Transitions:
// queued → running → done | failed | canceled; queued → canceled.
type JobState string

// Job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobEvent is one line of a job's NDJSON progress stream.
type JobEvent struct {
	Seq  int64     `json:"seq"`
	Wall time.Time `json:"wall"`
	Job  string    `json:"job"`
	// Kind is the event class: "queued", "started", "cell" (one cell
	// finished), "done", "failed", "canceled".
	Kind string `json:"kind"`
	// Cell-level fields, set on "cell" events.
	Cell        string `json:"cell,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached marks a cell answered from the result store.
	Cached bool   `json:"cached,omitempty"`
	Err    string `json:"error,omitempty"`
}

// maxJobEvents bounds a job's retained event history; a grid bigger
// than this still streams every event live, but late subscribers
// replay only the tail.
const maxJobEvents = 8192

// JobView is the serializable snapshot of a job, returned by
// GET /v1/jobs/{id}.
type JobView struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"` // "spec" or "grid"
	Name     string    `json:"name,omitempty"`
	State    JobState  `json:"state"`
	Client   string    `json:"client,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Cells is the total cell count; DoneCells and CacheHits advance as
	// the job runs.
	Cells     int `json:"cells"`
	DoneCells int `json:"done_cells"`
	CacheHits int `json:"cache_hits"`
	// FailedCells counts cells that errored (contained faults
	// included).
	FailedCells int `json:"failed_cells,omitempty"`
	// Fingerprints are the job's cell fingerprints in expansion order;
	// results are fetched per fingerprint from /v1/results/{fp}.
	Fingerprints []string `json:"fingerprints,omitempty"`
	// Err summarizes a failed job.
	Err string `json:"error,omitempty"`
	// Dump is the flight-recorder dump attached to a contained
	// simulator fault, if any cell produced one.
	Dump string `json:"dump,omitempty"`
}

// job is the server-side job record.
type job struct {
	mu     sync.Mutex
	view   JobView
	events []JobEvent
	seq    int64
	// wake broadcasts when events arrive or the state turns terminal.
	wake *sync.Cond
	// cancel aborts the job's run context (set while queued/running).
	cancel context.CancelFunc
	// deadline is the job's wall-clock budget, applied at start.
	budget time.Duration
	// work is the job's payload: expanded cells plus fingerprints.
	work jobWork
	// epoch is the admission instant (monotonic), the t=0 of the job's
	// service spans.
	epoch time.Time
	// spans accumulates the job's service-side lifecycle spans
	// (guarded by mu: the recorder itself is not goroutine-safe).
	spans *telemetry.SpanRecorder
	// captureTrace enables retaining sim events for /trace (?trace=1 on
	// submission); simEvents holds them, bounded by maxJobSimEvents.
	captureTrace bool
	simEvents    []obs.Event
}

// maxJobSimEvents bounds retained sim events per traced job; past it
// the earliest events win (they anchor the timeline).
const maxJobSimEvents = 131072

func newJob(view JobView, budget time.Duration) *job {
	j := &job{view: view, budget: budget, epoch: time.Now()}
	j.wake = sync.NewCond(&j.mu)
	j.spans = telemetry.NewSpanRecorder(j.epoch)
	return j
}

// setCaptureTrace arms sim-event retention for this job (?trace=1).
func (j *job) setCaptureTrace(on bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.captureTrace = on
}

// recordSpan adds a completed service span under the job lock.
func (j *job) recordSpan(track, name string, start, end time.Time, note string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.spans.Record(track, name, start, end, note)
}

// markSpan adds an instant marker under the job lock.
func (j *job) markSpan(track, name string, at time.Time, note string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.spans.Mark(track, name, at, note)
}

// spanList snapshots the recorded spans.
func (j *job) spanList() []telemetry.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spans.Spans()
}

// addSimEvents retains sim events for the combined trace, up to the
// per-job bound.
func (j *job) addSimEvents(evs []obs.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	room := maxJobSimEvents - len(j.simEvents)
	if room <= 0 {
		return
	}
	if len(evs) > room {
		evs = evs[:room]
	}
	j.simEvents = append(j.simEvents, evs...)
}

// simEventList snapshots retained sim events.
func (j *job) simEventList() []obs.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]obs.Event(nil), j.simEvents...)
}

// View snapshots the job.
func (j *job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.view
	v.Fingerprints = append([]string(nil), j.view.Fingerprints...)
	return v
}

// emit appends an event to the history and wakes streamers. Kind is
// stamped with the job id and a sequence number.
func (j *job) emit(ev JobEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(ev)
}

// emitLocked is emit with j.mu already held.
func (j *job) emitLocked(ev JobEvent) {
	j.seq++
	ev.Seq = j.seq
	ev.Job = j.view.ID
	ev.Wall = time.Now().UTC()
	j.events = append(j.events, ev)
	if len(j.events) > maxJobEvents {
		j.events = j.events[len(j.events)-maxJobEvents:]
	}
	j.wake.Broadcast()
}

// eventsSince returns retained events with Seq > after, plus whether
// the job is terminal (no more events will ever come).
func (j *job) eventsSince(after int64) ([]JobEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []JobEvent
	for _, ev := range j.events {
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out, j.view.State.Terminal()
}

// waitEvents blocks until an event with Seq > after exists, the job is
// terminal, or stop fires. It returns like eventsSince.
func (j *job) waitEvents(after int64, stop <-chan struct{}) ([]JobEvent, bool) {
	done := make(chan struct{})
	go func() {
		select {
		case <-stop:
			j.mu.Lock()
			j.wake.Broadcast()
			j.mu.Unlock()
		case <-done:
		}
	}()
	defer close(done)

	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.seq > after || j.view.State.Terminal() {
			var out []JobEvent
			for _, ev := range j.events {
				if ev.Seq > after {
					out = append(out, ev)
				}
			}
			return out, j.view.State.Terminal()
		}
		select {
		case <-stop:
			return nil, j.view.State.Terminal()
		default:
		}
		j.wake.Wait()
	}
}

// update mutates the view under the job lock and wakes streamers.
func (j *job) update(fn func(v *JobView)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fn(&j.view)
	j.wake.Broadcast()
}

// state returns the current state.
func (j *job) state() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view.State
}
