package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"vmp/internal/scenario"
)

// Client talks to a vmpd daemon. The zero value plus a BaseURL is
// usable; all methods are safe for concurrent use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8347".
	BaseURL string
	// ClientID is sent as X-Client-ID for quota accounting ("" = the
	// daemon falls back to the remote address).
	ClientID string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

// NewClient builds a client for a daemon base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// RetryAfterError reports a shed submission (429): the daemon asked the
// client to come back after RetryAfter.
type RetryAfterError struct {
	RetryAfter time.Duration
	Message    string
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("serve: shed (retry after %s): %s", e.RetryAfter, e.Message)
}

// StatusError reports any other non-2xx daemon response.
type StatusError struct {
	Code    int
	Message string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: daemon returned %d: %s", e.Code, e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues a request and decodes errors uniformly.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.ClientID != "" {
		req.Header.Set("X-Client-ID", c.ClientID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return data, nil
	}
	msg := string(data)
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if secs < 1 {
			secs = 1
		}
		return nil, &RetryAfterError{RetryAfter: time.Duration(secs) * time.Second, Message: msg}
	}
	return nil, &StatusError{Code: resp.StatusCode, Message: msg}
}

// SpecResult is a spec submission's answer.
type SpecResult struct {
	Fingerprint string
	Cached      bool
	// Result is the stored record (a scenario.CellResult), byte-for-byte
	// as the daemon persists it.
	Result json.RawMessage
}

// RunSpec submits a spec and blocks until its result is available
// (served from cache or computed under the daemon's job budget).
func (c *Client) RunSpec(ctx context.Context, spec scenario.Spec) (*SpecResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	data, err := c.do(ctx, "POST", "/v1/specs?wait=1", body)
	if err != nil {
		return nil, err
	}
	var sr specResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("serve: decoding spec response: %w", err)
	}
	return &SpecResult{Fingerprint: sr.Fingerprint, Cached: sr.Cached, Result: sr.Result}, nil
}

// GridSubmission is an accepted (202) grid submission.
type GridSubmission struct {
	Job          string
	Cells        int
	CachedCells  int
	Fingerprints []string
	// Sweep is set instead of Job when the whole grid was answered from
	// the cache (a 200).
	Sweep *scenario.SweepResult
}

// SubmitGrid submits a grid. A fully cached grid returns the assembled
// sweep immediately; otherwise the returned Job is tracked with
// WaitJob/Job.
func (c *Client) SubmitGrid(ctx context.Context, g scenario.Grid) (*GridSubmission, error) {
	body, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	data, err := c.do(ctx, "POST", "/v1/grids", body)
	if err != nil {
		return nil, err
	}
	var cached struct {
		Cached bool                  `json:"cached"`
		Sweep  *scenario.SweepResult `json:"sweep"`
	}
	if err := json.Unmarshal(data, &cached); err == nil && cached.Cached {
		return &GridSubmission{Sweep: cached.Sweep, Cells: len(cached.Sweep.Cells), CachedCells: len(cached.Sweep.Cells)}, nil
	}
	var sub submitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, fmt.Errorf("serve: decoding grid response: %w", err)
	}
	return &GridSubmission{
		Job: sub.Job, Cells: sub.Cells, CachedCells: sub.CachedCells, Fingerprints: sub.Fingerprints,
	}, nil
}

// Job fetches a job snapshot.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	data, err := c.do(ctx, "GET", "/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// WaitJob polls a job until it is terminal (or ctx fires).
func (c *Client) WaitJob(ctx context.Context, id string) (*JobView, error) {
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if v.State.Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Events streams a job's NDJSON progress, invoking fn per event until
// the job is terminal, the stream breaks, or ctx fires.
func (c *Client) Events(ctx context.Context, id string, fn func(JobEvent)) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return &StatusError{Code: resp.StatusCode, Message: string(data)}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev JobEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		fn(ev)
	}
}

// Result fetches the stored record for a fingerprint, verified bytes
// exactly as persisted.
func (c *Client) Result(ctx context.Context, fp string) ([]byte, error) {
	return c.do(ctx, "GET", "/v1/results/"+url.PathEscape(fp), nil)
}

// CellResult fetches and decodes the stored record for a fingerprint.
func (c *Client) CellResult(ctx context.Context, fp string) (*scenario.CellResult, error) {
	data, err := c.Result(ctx, fp)
	if err != nil {
		return nil, err
	}
	var cr scenario.CellResult
	if err := json.Unmarshal(data, &cr); err != nil {
		return nil, err
	}
	return &cr, nil
}

// Stats fetches the daemon's /statsz counters.
func (c *Client) Stats(ctx context.Context) (*StatsView, error) {
	data, err := c.do(ctx, "GET", "/statsz", nil)
	if err != nil {
		return nil, err
	}
	var sv StatsView
	if err := json.Unmarshal(data, &sv); err != nil {
		return nil, err
	}
	return &sv, nil
}
