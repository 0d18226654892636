package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/obs"
)

// ErrBreakerOpen is returned by the client while its circuit breaker is
// open: the server has been shedding or failing persistently, so the client
// fails fast locally instead of adding load to a saturated service.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// StatusError is a non-200 /decide response. It unwraps to the matching
// sentinel so callers classify outcomes the same way whether the decider is
// in-process or remote: a 503 is errors.Is(err, ErrShed), a 504 is
// errors.Is(err, context.DeadlineExceeded).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: /decide: %d: %s", e.Code, e.Msg)
}

func (e *StatusError) Unwrap() error {
	switch e.Code {
	case http.StatusServiceUnavailable:
		return ErrShed
	case http.StatusGatewayTimeout:
		return context.DeadlineExceeded
	}
	return nil
}

// Client is the HTTP side of the data plane: a Decider that talks to a
// genet-serve /decide endpoint. It retries retryable failures (connect
// errors, 503 sheds, 504 deadlines) with capped exponential backoff and
// full jitter, and trips a circuit breaker after persistent failures so a
// saturated server sheds real load instead of retry storms.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// HTTPClient defaults to a client with a 10s timeout; per-request
	// deadlines come from the DecideCtx context.
	HTTPClient *http.Client

	// MaxRetries is how many times a retryable failure is retried after
	// the first attempt (default 3; negative disables retries).
	MaxRetries int
	// BackoffBase/BackoffMax bound the exponential backoff: the k-th
	// retry sleeps uniformly in [0, min(BackoffMax, BackoffBase·2^k)] —
	// full jitter, so synchronized clients desynchronize. Defaults
	// 10ms/1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// BreakerThreshold opens the breaker after this many consecutive
	// retryable failures (default 8; negative disables the breaker).
	// While open, calls fail fast with ErrBreakerOpen; after
	// BreakerCooldown (default 1s) one probe request is let through, and
	// its outcome closes or re-opens the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Injector arms the client-drop chaos site: a firing drops the
	// attempt before it reaches the network, as a connection reset would.
	Injector *faults.Injector

	// Recorder receives client-side spans (attempts, backoff waits,
	// breaker-open fast-fails), each tagged with the request's trace ID and
	// attempt index. Nil (the default) records nothing at the usual
	// nil-check cost.
	Recorder *obs.Recorder

	// clock is injectable for deterministic breaker tests.
	clock func() time.Time

	mu          sync.Mutex
	rng         *rand.Rand // jitter source; seeded for deterministic tests
	consecFails int
	openUntil   time.Time
	probing     bool
}

// NewClient returns a Client for the server at baseURL with default retry
// and breaker policy and jitter seeded from seed 1.
func NewClient(baseURL string) *Client { return NewClientSeeded(baseURL, 1) }

// NewClientSeeded is NewClient with an explicit jitter seed, so tests (and
// the seeded load generator) get reproducible backoff schedules.
func NewClientSeeded(baseURL string, seed int64) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
		rng:        rand.New(rand.NewSource(seed)),
	}
}

func (c *Client) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return time.Now()
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

// backoffDelay returns the jittered sleep before retry attempt k (0-based):
// uniform in [0, min(BackoffMax, BackoffBase·2^k)].
func (c *Client) backoffDelay(attempt int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := c.BackoffMax
	if max <= 0 {
		max = time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return time.Duration(c.rng.Int63n(int64(d) + 1))
}

// Decide queries the remote policy with no caller deadline — the Decider
// compatibility entry point. New callers use DecideCtx.
func (c *Client) Decide(obsVec []float64) (Decision, error) {
	return c.DecideCtx(context.Background(), obsVec)
}

// DecideCtx queries the remote policy under ctx, retrying retryable
// failures with jittered backoff while the context allows and the breaker
// is closed. A non-200 response becomes a *StatusError carrying the
// server's message, so dimension mismatches read the same whether the
// decider is in-process or remote.
//
// Every request carries one trace ID end to end: the one already on ctx
// (obs.WithTrace) or a freshly minted one. All retry attempts send it in
// X-Genet-Trace with their attempt index in X-Genet-Attempt, so the
// server's access log shows a retry storm as one trace with ascending
// attempts, and client-side spans (attempt, backoff, breaker-open) attach
// to the same trace as the server's spans.
func (c *Client) DecideCtx(ctx context.Context, obsVec []float64) (Decision, error) {
	body, err := appendDecideRequest(make([]byte, 0, 16+len(obsVec)*(maxFloatLen+1)), obsVec)
	if err != nil {
		return Decision{}, fmt.Errorf("serve: encode request: %w", err)
	}
	tid := obs.TraceFrom(ctx)
	if tid == 0 {
		tid = c.mintTrace()
	}
	for attempt := 0; ; attempt++ {
		if err := c.breakerAllow(); err != nil {
			if c.Recorder.Enabled() {
				c.Recorder.Instant("client/breaker_open",
					obs.Arg{K: obs.ArgTrace, V: tid.Float()},
					obs.Arg{K: obs.ArgAttempt, V: float64(attempt)})
			}
			return Decision{}, err
		}
		sp := c.Recorder.StartOn(ClientSpanTrack, "client/attempt")
		d, err, retryable := c.attempt(ctx, body, tid, attempt)
		if c.Recorder.Enabled() {
			sp.EndArgs(
				obs.Arg{K: obs.ArgTrace, V: tid.Float()},
				obs.Arg{K: obs.ArgAttempt, V: float64(attempt)})
		}
		if err == nil {
			c.breakerSuccess()
			return d, nil
		}
		c.breakerFailure(retryable)
		if !retryable || attempt >= c.maxRetries() {
			return Decision{}, err
		}
		bsp := c.Recorder.StartOn(ClientSpanTrack, "client/backoff")
		t := time.NewTimer(c.backoffDelay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			if c.Recorder.Enabled() {
				bsp.EndArgs(obs.Arg{K: obs.ArgTrace, V: tid.Float()})
			}
			return Decision{}, ctx.Err()
		}
		if c.Recorder.Enabled() {
			bsp.EndArgs(obs.Arg{K: obs.ArgTrace, V: tid.Float()})
		}
	}
}

// mintTrace derives a fresh trace ID from the client's seeded jitter source,
// so seeded clients mint reproducible traces.
func (c *Client) mintTrace() obs.TraceID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return obs.NewTraceID(c.rng.Uint64(), 1)
}

// attempt performs one request. The third return reports whether the
// failure is retryable: transport errors, injected drops, 503 sheds, and
// 504 deadlines are; context expiry and 4xx rejections are not.
func (c *Client) attempt(ctx context.Context, body []byte, tid obs.TraceID, attemptIdx int) (Decision, error, bool) {
	if c.Injector.Fire(faults.ClientDrop) {
		return Decision{}, fmt.Errorf("serve: %w", faults.Injected{Site: faults.ClientDrop}), true
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/decide", bytes.NewReader(body))
	if err != nil {
		return Decision{}, fmt.Errorf("serve: %w", err), false
	}
	req.Header.Set("Content-Type", "application/json")
	if tid != 0 {
		req.Header.Set(TraceHeader, tid.String())
		req.Header.Set(AttemptHeader, strconv.Itoa(attemptIdx))
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		// The caller's budget expiring is final; a transport failure with
		// budget left is worth another try.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Decision{}, ctxErr, false
		}
		return Decision{}, fmt.Errorf("serve: %w", err), true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		sErr := &StatusError{Code: resp.StatusCode, Msg: errorMessage(raw)}
		retryable := resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout
		return Decision{}, sErr, retryable
	}
	wb := getWireBuf()
	defer wb.put()
	d, err := wb.decodeResponse(resp.Body)
	if err != nil {
		return Decision{}, fmt.Errorf("serve: decode response: %w", err), false
	}
	return d, nil, false
}

// errorMessage is the message of a non-200 /decide body: the server's error
// text when the body is a structured ErrorBody, else the raw body trimmed
// (a proxy's or a plain http.Error text).
func errorMessage(raw []byte) string {
	var body ErrorBody
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		return body.Error
	}
	return strings.TrimSpace(string(raw))
}

// breakerAllow admits the next attempt, fails fast while open, and lets a
// single probe through once the cooldown has passed.
func (c *Client) breakerAllow() error {
	if c.BreakerThreshold < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openUntil.IsZero() {
		return nil
	}
	if c.now().Before(c.openUntil) {
		return ErrBreakerOpen
	}
	// Cooldown elapsed: half-open. One probe at a time.
	if c.probing {
		return ErrBreakerOpen
	}
	c.probing = true
	return nil
}

// breakerSuccess closes the breaker and clears the failure streak.
func (c *Client) breakerSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consecFails = 0
	c.openUntil = time.Time{}
	c.probing = false
}

// breakerFailure records a retryable failure: it re-opens on a failed
// probe, and opens the breaker when the consecutive-failure streak crosses
// the threshold.
func (c *Client) breakerFailure(retryable bool) {
	if !retryable || c.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cooldown := c.BreakerCooldown
	if cooldown <= 0 {
		cooldown = time.Second
	}
	if c.probing {
		c.probing = false
		c.openUntil = c.now().Add(cooldown)
		return
	}
	threshold := c.BreakerThreshold
	if threshold == 0 {
		threshold = 8
	}
	c.consecFails++
	if c.consecFails >= threshold {
		c.openUntil = c.now().Add(cooldown)
		c.consecFails = 0
	}
}
