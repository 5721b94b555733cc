package serve

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock advances only when told, so quota tests never sleep.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time             { return c.t }
func (c *fakeClock) advance(d time.Duration)    { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                  { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func withClock(q *Quotas, c *fakeClock) *Quotas { q.now = c.now; return q }

func TestQuotaBurstThenRefill(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQuotas(1, 3), clock)

	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("c"); !ok {
			t.Fatalf("burst admission %d refused", i)
		}
	}
	ok, retry := q.Allow("c")
	if ok {
		t.Fatal("4th immediate admission allowed past burst")
	}
	if retry < time.Second {
		t.Errorf("Retry-After = %v, want >= 1s", retry)
	}
	// One token accrues per second at rate 1.
	clock.advance(1100 * time.Millisecond)
	if ok, _ := q.Allow("c"); !ok {
		t.Fatal("admission refused after refill window")
	}
	if ok, _ := q.Allow("c"); ok {
		t.Fatal("second admission allowed from a single refilled token")
	}
}

func TestQuotaClientsIsolated(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQuotas(1, 1), clock)
	if ok, _ := q.Allow("a"); !ok {
		t.Fatal("client a refused its burst")
	}
	if ok, _ := q.Allow("b"); !ok {
		t.Fatal("client b throttled by client a's spend")
	}
	if ok, _ := q.Allow("a"); ok {
		t.Fatal("client a admitted past its bucket")
	}
}

func TestQuotaPruneBoundsMemory(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQuotas(10, 2), clock)
	for i := 0; i < maxQuotaClients; i++ {
		q.Allow(fmt.Sprintf("client-%d", i))
	}
	if q.Clients() != maxQuotaClients {
		t.Fatalf("Clients = %d, want %d", q.Clients(), maxQuotaClients)
	}
	// Everyone refills; the next new client triggers the prune.
	clock.advance(time.Minute)
	q.Allow("the-straw")
	if n := q.Clients(); n > 2 {
		t.Fatalf("Clients = %d after prune, want <= 2", n)
	}
}

func TestQuotaBurstFloor(t *testing.T) {
	q := withClock(NewQuotas(1, 0), newFakeClock())
	if ok, _ := q.Allow("c"); !ok {
		t.Fatal("burst<1 must normalize to a bucket that can admit")
	}
}

// TestBudgetForClamps: ?budget_ms= is clamped to [50ms, MaxJobBudget]
// without overflowing, and a non-positive or unparsable value falls
// back to the default budget.
func TestBudgetForClamps(t *testing.T) {
	s := &Server{cfg: Config{JobBudget: 2 * time.Minute, MaxJobBudget: 10 * time.Minute}}
	for _, c := range []struct {
		q    string
		want time.Duration
	}{
		{"", 2 * time.Minute},
		{"0", 2 * time.Minute},
		{"-5", 2 * time.Minute},
		{"junk", 2 * time.Minute},
		{"10", 50 * time.Millisecond},
		{"1500", 1500 * time.Millisecond},
		{"600000", 10 * time.Minute},
		{"9300000000000", 10 * time.Minute},
		{"9223372036854775807", 10 * time.Minute},
	} {
		r := httptest.NewRequest("POST", "/v1/jobs?budget_ms="+c.q, nil)
		if got := s.budgetFor(r); got != c.want {
			t.Errorf("budget_ms=%q: got %v, want %v", c.q, got, c.want)
		}
	}
}
