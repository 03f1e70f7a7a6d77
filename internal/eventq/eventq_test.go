package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// popTag pops the head and returns its tag, failing on an empty queue or
// on the armed entry.
func popTag(t *testing.T, q *Queue) int64 {
	t.Helper()
	e, armed, ok := q.Pop()
	if !ok || armed {
		t.Fatalf("Pop = %+v armed=%v ok=%v, want a timer", e, armed, ok)
	}
	return e.Tag
}

func TestPopOrder(t *testing.T) {
	var q Queue
	q.Push(3, 'c')
	q.Push(1, 'a')
	q.Push(2, 'b')
	var got []int64
	for !q.Empty() {
		got = append(got, popTag(t, &q))
	}
	want := []int64{'a', 'b', 'c'}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %q, want %q", got, want)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on an empty queue reported an event")
	}
}

func TestTieBreakBySequence(t *testing.T) {
	var q Queue
	q.Push(5, 1)
	q.Push(5, 2)
	q.Push(5, 3)
	if got := popTag(t, &q); got != 1 {
		t.Errorf("first pop = %d", got)
	}
	if got := popTag(t, &q); got != 2 {
		t.Errorf("second pop = %d", got)
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue reported an event")
	}
	q.Push(2, 'x')
	q.Push(1, 'y')
	if e, ok := q.Peek(); !ok || e.Tag != 'y' {
		t.Errorf("Peek = %+v, want y", e)
	}
	q.Arm(0.5)
	if e, ok := q.Peek(); !ok || e.Time != 0.5 || e.Seq != 3 {
		t.Errorf("Peek = %+v, want the armed entry at 0.5 with seq 3", e)
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d after Peek, want 3", q.Len())
	}
}

// TestArmReplaces: the armed slot holds one entry; a second Arm replaces
// the first, popping it disarms the slot, and Disarm on an empty slot is a
// no-op.
func TestArmReplaces(t *testing.T) {
	var q Queue
	q.Disarm()
	q.Arm(2)
	q.Push(1, 'a')
	q.Push(3, 'c')
	q.Arm(2.5)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (two timers and one armed entry)", q.Len())
	}
	if got := popTag(t, &q); got != 'a' {
		t.Errorf("first pop = %q, want a", got)
	}
	e, armed, ok := q.Pop()
	if !ok || !armed || e.Time != 2.5 || e.Seq != 4 {
		t.Errorf("second pop = %+v armed=%v, want the re-armed entry at 2.5 with seq 4", e, armed)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d after popping the armed entry, want 1", q.Len())
	}
	if got := popTag(t, &q); got != 'c' {
		t.Errorf("third pop = %q, want c", got)
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
}

// TestDisarmHead: disarming an armed entry at the head exposes the timer
// behind it.
func TestDisarmHead(t *testing.T) {
	var q Queue
	q.Arm(1)
	q.Push(2, 'b')
	q.Disarm()
	if got := popTag(t, &q); got != 'b' {
		t.Errorf("pop = %q, want b after disarming the head", got)
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
}

// TestRearmSameTimeTakesFreshSeq: re-arming at an unchanged time still
// takes a fresh sequence number, so a timer pushed at that time between the
// two Arm calls fires first — exactly as if the completion had been
// cancelled and pushed again.
func TestRearmSameTimeTakesFreshSeq(t *testing.T) {
	var q Queue
	q.Arm(5)
	if e, armed, _ := q.head(); !armed || e.Seq != 1 {
		t.Fatalf("head = %+v armed=%v, want the armed entry with seq 1", e, armed)
	}
	q.Push(5, 7)
	if e, armed, _ := q.head(); !armed || e.Seq != 1 {
		t.Fatalf("head = %+v armed=%v, want the armed entry (seq 1) before the timer (seq 2)", e, armed)
	}
	q.Arm(5)
	if got := popTag(t, &q); got != 7 {
		t.Fatalf("first pop = %d, want the timer pushed before the re-arm", got)
	}
	e, armed, ok := q.Pop()
	if !ok || !armed || e.Time != 5 || e.Seq != 3 {
		t.Errorf("second pop = %+v armed=%v, want the armed entry at 5 with seq 3", e, armed)
	}
}

// Property: popping always yields non-decreasing times, with arms and
// disarms interleaved at random.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64, times []float64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		for i, tm := range times {
			switch r.Intn(4) {
			case 0:
				q.Arm(tm)
			case 1:
				q.Disarm()
				q.Push(tm, int64(i))
			default:
				q.Push(tm, int64(i))
			}
		}
		prev := math.Inf(-1)
		for !q.Empty() {
			e, _, _ := q.Pop()
			if e.Time < prev {
				return false
			}
			prev = e.Time
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: without the armed slot the queue is a stable sort by (time,
// seq).
func TestStableSortProperty(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		type tagged struct {
			t   float64
			idx int64
		}
		var want []tagged
		for i, tm := range times {
			q.Push(tm, int64(i))
			want = append(want, tagged{tm, int64(i)})
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].t < want[b].t })
		for _, w := range want {
			e, armed, ok := q.Pop()
			if !ok || armed || e.Time != w.t || e.Tag != w.idx {
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRandomizedAgainstReference drives a long random interleaving of
// Push, Pop, Arm, Disarm and Peek against a reference model — a list kept
// sorted by (time, seq), in which the armed entry is one more element — and
// demands the queue agree with the model at every step, entry for entry.
// Times are drawn from a small discrete set so equal-time ties (broken by
// sequence) occur constantly, re-arms at an unchanged time included.
func TestRandomizedAgainstReference(t *testing.T) {
	type entry struct {
		e     Event
		armed bool
	}
	r := rand.New(rand.NewSource(99))
	var q Queue
	var ref []entry // pending entries, sorted by (Time, Seq)
	var seq uint64

	insert := func(x entry) {
		at := sort.Search(len(ref), func(i int) bool { return x.e.before(ref[i].e) })
		ref = append(ref, entry{})
		copy(ref[at+1:], ref[at:])
		ref[at] = x
	}
	disarm := func() {
		for i := range ref {
			if ref[i].armed {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
	}

	check := func(step int) {
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, model has %d", step, q.Len(), len(ref))
		}
		head, ok := q.Peek()
		switch {
		case len(ref) == 0 && ok:
			t.Fatalf("step %d: Peek = %+v on empty model", step, head)
		case len(ref) > 0 && (!ok || head != ref[0].e):
			t.Fatalf("step %d: Peek = %+v, model head %+v", step, head, ref[0].e)
		}
	}

	for step := 0; step < 5000; step++ {
		switch op := r.Intn(10); {
		case op < 4: // push, times from {0..7} to force ties
			tm := float64(r.Intn(8))
			q.Push(tm, int64(step))
			seq++
			insert(entry{e: Event{Time: tm, Seq: seq, Tag: int64(step)}})
		case op < 7: // pop
			got, armed, ok := q.Pop()
			if len(ref) == 0 {
				if ok {
					t.Fatalf("step %d: Pop = %+v on empty model", step, got)
				}
				break
			}
			if !ok || got != ref[0].e || armed != ref[0].armed {
				t.Fatalf("step %d: Pop = %+v armed=%v, model head %+v", step, got, armed, ref[0])
			}
			ref = ref[1:]
		case op < 9: // (re-)arm
			tm := float64(r.Intn(8))
			q.Arm(tm)
			disarm()
			seq++
			insert(entry{e: Event{Time: tm, Seq: seq}, armed: true})
		default:
			q.Disarm()
			disarm()
		}
		check(step)
	}

	// Drain: remaining events must come out in exact model order.
	for len(ref) > 0 {
		if got, armed, ok := q.Pop(); !ok || got != ref[0].e || armed != ref[0].armed {
			t.Fatalf("drain: Pop = %+v armed=%v, model head %+v", got, armed, ref[0])
		}
		ref = ref[1:]
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining the model")
	}
}

// TestPushPopAllocationFree: once the heap has grown, pushing, popping and
// re-arming allocate nothing.
func TestPushPopAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q Queue
	for i := 0; i < 64; i++ {
		q.Push(r.Float64(), int64(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e, _, _ := q.Pop()
		q.Push(e.Time+r.Float64(), e.Tag)
		q.Arm(e.Time + r.Float64())
	})
	if allocs != 0 {
		t.Errorf("warm Pop/Push/Arm allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(r.Float64(), int64(i))
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}
