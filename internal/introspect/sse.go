package introspect

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// subBuffer is each SSE subscriber's channel depth; a subscriber whose
// connection stalls past it is dropped (its stream ends) rather than
// stalling the publisher — it reconnects with Last-Event-ID and replays
// what it missed from the broker's history ring.
const subBuffer = 64

// DefaultSSEKeepalive is the comment-frame cadence for idle SSE
// streams. Proxies and load balancers reap silent connections; a
// keepalive comment every few seconds keeps the stream open without
// delivering any event to the client's handler.
const DefaultSSEKeepalive = 15 * time.Second

// historySize bounds the broker's event-replay ring: a reconnecting
// subscriber can resume across at most this many missed events before
// the gap is simply lost (it then restarts from the live stream).
const historySize = 256

// event is one published body stamped with its broker-assigned ID.
type event struct {
	id   uint64
	body []byte
}

// Broker fans published events out to Server-Sent-Events subscribers:
// the live half of the timeline endpoint (each closed epoch streams to
// every watcher), each service job's status stream, and anything else
// that wants a push feed.
//
// Delivery is hardened against slow consumers in both directions:
// Publish never blocks — a subscriber whose buffer fills is dropped
// (its stream ends) instead of stalling the publisher or silently
// losing interior events — and every frame carries an "id:" field, so
// a dropped or disconnected client that reconnects with the standard
// Last-Event-ID header replays the events it missed from a bounded
// history ring before rejoining the live stream.
type Broker struct {
	keepalive time.Duration

	mu     sync.Mutex
	subs   map[chan event]struct{}
	hist   []event // ring of the last historySize events, oldest first
	nextID uint64  // next event ID to assign (IDs start at 1)
	closed bool    // set by Close: streams end after the replay
}

// NewBroker returns a broker sending keepalive comments at the given
// cadence (0 = DefaultSSEKeepalive, negative = disabled).
func NewBroker(keepalive time.Duration) *Broker {
	if keepalive == 0 {
		keepalive = DefaultSSEKeepalive
	}
	return &Broker{keepalive: keepalive, subs: make(map[chan event]struct{})}
}

// Publish sends one event body (pre-marshaled JSON, no framing) to
// every subscriber, non-blocking: a subscriber whose buffer is full is
// dropped — its channel closes, ending its stream — so one stalled
// client can neither block the publisher nor accumulate unbounded
// backlog. The event enters the replay ring regardless, so the dropped
// client recovers it by reconnecting with Last-Event-ID. Safe on a nil
// broker and from any goroutine.
func (b *Broker) Publish(body []byte) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	ev := event{id: b.nextID, body: body}
	b.hist = append(b.hist, ev)
	if len(b.hist) > historySize {
		b.hist = b.hist[len(b.hist)-historySize:]
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			delete(b.subs, ch)
			close(ch)
		}
	}
}

// Close ends the stream for good: every live subscriber's stream ends
// after the last published event, and a later subscriber replays the
// retained history and then ends. A job's status stream closes this way
// after its terminal event. Safe on a nil broker.
func (b *Broker) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
}

// Subscribers reports the current subscriber count.
func (b *Broker) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// LastEventID reports the most recently assigned event ID (0 before the
// first publish).
func (b *Broker) LastEventID() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextID
}

// subscribe registers a subscriber and atomically computes its replay:
// every retained event with ID greater than after, so a resuming client
// misses nothing between its last-seen event and the live stream. An
// after beyond the last assigned ID came from an earlier broker (a
// restarted process, a resubmitted job), so it replays everything. On a
// closed broker the channel is nil: the replay is all there is.
func (b *Broker) subscribe(after uint64) (chan event, []event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ch chan event
	if !b.closed {
		ch = make(chan event, subBuffer)
		b.subs[ch] = struct{}{}
	}
	if after > b.nextID {
		after = 0
	}
	var replay []event
	for _, ev := range b.hist {
		if ev.id > after {
			replay = append(replay, ev)
		}
	}
	return ch, replay
}

// unsubscribe removes a subscriber that is going away on its own. The
// channel is left to the garbage collector: only Publish closes
// channels (to signal a drop), so there is no double-close race.
func (b *Broker) unsubscribe(ch chan event) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

// ServeHTTP streams the broker's events as text/event-stream: one
// "id:" + "data:" frame per published body, a ": keepalive" comment on
// every idle keepalive period, until the client disconnects, falls far
// enough behind to be dropped, or the broker is closed. A request
// carrying the standard Last-Event-ID header resumes after that event,
// replaying missed events from the history ring first.
func (b *Broker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		// A malformed ID is treated as absent: the client starts live.
		after, _ = strconv.ParseUint(v, 10, 64)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, replay := b.subscribe(after)
	defer b.unsubscribe(ch)
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	if len(replay) > 0 {
		fl.Flush()
	}
	if ch == nil {
		return
	}

	var keep <-chan time.Time
	if b.keepalive > 0 {
		t := time.NewTicker(b.keepalive)
		defer t.Stop()
		keep = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Closed, or dropped for falling behind: end the stream. A
				// dropped client reconnects with Last-Event-ID and replays
				// the gap.
				return
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-keep:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}

// writeSSE frames one event: its ID line then its data line.
func writeSSE(w http.ResponseWriter, ev event) {
	fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.id, ev.body)
}
