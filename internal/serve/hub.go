package serve

import "sync"

// Event frame types published on a job's hub. Each maps to one SSE event
// type on the wire.
const (
	// EventStatus frames carry a Status — sent when the job starts running
	// and again when it reaches a terminal state.
	EventStatus = "status"
	// EventRecord frames carry a campaign.Record, one per finished cell
	// (grid jobs).
	EventRecord = "record"
	// EventSim frames carry a TraceEvent, one per scheduling transition
	// (trace jobs).
	EventSim = "event"
	// EventSnapshot frames carry an online.Snapshot — after every finished
	// cell for grid jobs, every SnapshotEvery transitions for trace jobs.
	EventSnapshot = "snapshot"
)

// Event is one frame on a job's live stream.
type Event struct {
	Type string
	Data any
}

// hub is a close-once broadcast channel set. Publishing never blocks the
// simulation: a subscriber whose buffer is full loses that frame (counted
// in dropped) rather than stalling the producer — live streams are a view,
// the JSONL checkpoint is the record.
type hub struct {
	mu      sync.Mutex
	subs    map[chan Event]struct{}
	closed  bool
	dropped int64
}

func newHub() *hub {
	return &hub{subs: map[chan Event]struct{}{}}
}

// subscribe registers a consumer with the given buffer size. After the hub
// closes (job finished), the returned channel is closed once buffered
// frames drain. The cancel function is idempotent.
func (h *hub) subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Event, buf)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[ch]; ok {
				delete(h.subs, ch)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// publish fans the frame out to every subscriber, dropping it for any
// whose buffer is full.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			h.dropped++
		}
	}
}

// close ends the stream: every subscriber channel closes after its
// buffered frames drain, and later subscribes get an already-closed
// channel.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = map[chan Event]struct{}{}
}
