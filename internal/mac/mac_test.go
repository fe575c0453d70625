package mac

import (
	"reflect"
	"testing"
	"testing/quick"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

func newTestContender(t *testing.T) (*sim.Engine, *Contender, *[]sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	grants := &[]sim.Time{}
	c := NewContender(eng, phys.Default(), sim.NewRNG(1, 1), func() {
		*grants = append(*grants, eng.Now())
	})
	return eng, c, grants
}

func TestContenderGrantsAfterDIFSPlusBackoff(t *testing.T) {
	eng, c, grants := newTestContender(t)
	p := phys.Default()
	c.Request()
	eng.Run(sim.Second)
	if len(*grants) != 1 {
		t.Fatalf("grants = %d, want 1", len(*grants))
	}
	at := (*grants)[0]
	if at < p.DIFS() {
		t.Fatalf("grant at %v before DIFS %v", at, p.DIFS())
	}
	max := p.DIFS() + sim.Time(p.CWMin)*p.Slot
	if at > max {
		t.Fatalf("grant at %v after DIFS+CWmin·slot %v", at, max)
	}
	// Grant must land exactly on a slot boundary after DIFS.
	if (at-p.DIFS())%p.Slot != 0 {
		t.Fatalf("grant at %v not slot-aligned", at)
	}
}

func TestContenderRequestIdempotent(t *testing.T) {
	eng, c, grants := newTestContender(t)
	c.Request()
	c.Request()
	c.Request()
	eng.Run(sim.Second)
	if len(*grants) != 1 {
		t.Fatalf("grants = %d, want 1 for repeated Request", len(*grants))
	}
}

func TestContenderFreezesDuringBusy(t *testing.T) {
	eng, c, grants := newTestContender(t)
	p := phys.Default()
	c.Request()
	// Channel goes busy before the backoff can complete and stays busy for
	// 10 ms: no grant may fire during that period.
	eng.At(p.DIFS(), func() { c.OnBusy() })
	eng.At(p.DIFS()+10*sim.Millisecond, func() { c.OnIdle() })
	eng.Run(sim.Second)
	if len(*grants) != 1 {
		t.Fatalf("grants = %d, want 1", len(*grants))
	}
	if (*grants)[0] < p.DIFS()+10*sim.Millisecond {
		t.Fatalf("grant at %v fired during busy period", (*grants)[0])
	}
}

func TestContenderBackoffResumesNotRestarts(t *testing.T) {
	// With a frozen countdown, the remaining slots after resume must be
	// less than or equal to the original draw: total elapsed idle time
	// before the grant is bounded by DIFS + CWmin slots + DIFS.
	eng, c, grants := newTestContender(t)
	p := phys.Default()
	c.Request()
	busyAt := p.DIFS() + 2*p.Slot
	idleAt := busyAt + 5*sim.Millisecond
	eng.At(busyAt, func() { c.OnBusy() })
	eng.At(idleAt, func() { c.OnIdle() })
	eng.Run(sim.Second)
	grant := (*grants)[0]
	worst := idleAt + p.DIFS() + sim.Time(p.CWMin)*p.Slot
	if grant > worst {
		t.Fatalf("grant at %v suggests backoff restarted (worst resume %v)", grant, worst)
	}
}

func TestContenderFailureDoublesWindow(t *testing.T) {
	eng, c, _ := newTestContender(t)
	p := phys.Default()
	if c.cw != p.CWMin {
		t.Fatalf("initial cw = %d", c.cw)
	}
	c.Failure()
	if c.cw != 2*(p.CWMin+1)-1 {
		t.Fatalf("cw after failure = %d, want 31", c.cw)
	}
	for i := 0; i < 20; i++ {
		c.Failure()
	}
	if c.cw != p.CWMax {
		t.Fatalf("cw must cap at CWMax, got %d", c.cw)
	}
	c.Success()
	if c.cw != p.CWMin {
		t.Fatalf("cw after success = %d, want CWMin", c.cw)
	}
	_ = eng
}

func TestContenderEIFSAfterCorruption(t *testing.T) {
	eng, c, grants := newTestContender(t)
	p := phys.Default()
	// Simulate: corrupted frame ends at t=0 (busy→idle with eifs noted).
	c.OnBusy()
	c.NoteCorrupted()
	c.Request()
	c.OnIdle()
	eng.Run(sim.Second)
	if len(*grants) != 1 {
		t.Fatalf("grants = %d", len(*grants))
	}
	if (*grants)[0] < p.EIFS() {
		t.Fatalf("grant at %v before EIFS %v", (*grants)[0], p.EIFS())
	}
}

func TestContenderCancelWithdraws(t *testing.T) {
	eng, c, grants := newTestContender(t)
	c.Request()
	c.Cancel()
	eng.Run(sim.Second)
	if len(*grants) != 0 {
		t.Fatal("cancelled request must not grant")
	}
}

func TestContenderGrantSlotAlignedProperty(t *testing.T) {
	p := phys.Default()
	prop := func(seed uint32) bool {
		eng := sim.NewEngine()
		var at sim.Time
		c := NewContender(eng, p, sim.NewRNG(uint64(seed), 2), func() { at = eng.Now() })
		c.Request()
		eng.Run(sim.Second)
		return at >= p.DIFS() && (at-p.DIFS())%p.Slot == 0 &&
			at <= p.DIFS()+sim.Time(p.CWMin)*p.Slot
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePushPopFIFO(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 3; i++ {
		if !q.Push(&pkt.Packet{Seq: int64(i)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.Push(&pkt.Packet{Seq: 3}) {
		t.Fatal("push beyond limit must fail")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after a rejected push, want 3", q.Len())
	}
	for i := 0; i < 3; i++ {
		p := q.Pop()
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("pop %d = %v", i, p)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop from empty queue must return nil")
	}
}

func TestQueuePushFrontBypassesLimit(t *testing.T) {
	q := NewQueue(1)
	q.Push(&pkt.Packet{Seq: 1})
	q.PushFront(&pkt.Packet{Seq: 0})
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2 (front insert exceeds limit)", q.Len())
	}
	if q.Pop().Seq != 0 {
		t.Fatal("PushFront must go to the head")
	}
}

func TestQueuePopN(t *testing.T) {
	q := NewQueue(10)
	for i := 0; i < 5; i++ {
		q.Push(&pkt.Packet{Seq: int64(i)})
	}
	got := q.PopN(3)
	if len(got) != 3 || got[0].Seq != 0 || got[2].Seq != 2 {
		t.Fatalf("PopN(3) = %v", got)
	}
	if q.Len() != 2 {
		t.Fatalf("len after PopN = %d", q.Len())
	}
	if len(q.PopN(10)) != 2 {
		t.Fatal("PopN beyond length should return remainder")
	}
}

func TestQueuePopNWhere(t *testing.T) {
	q := NewQueue(10)
	for i := 0; i < 6; i++ {
		q.Push(&pkt.Packet{Seq: int64(i), FlowID: i % 2})
	}
	got := q.PopNWhereInto(nil, 2, func(p *pkt.Packet) bool { return p.FlowID == 1 })
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 {
		t.Fatalf("PopNWhere = %+v", got)
	}
	// Remaining order preserved: 0,2,4,5.
	wantSeqs := []int64{0, 2, 4, 5}
	for _, w := range wantSeqs {
		if p := q.Pop(); p.Seq != w {
			t.Fatalf("remaining order broken: got %d, want %d", p.Seq, w)
		}
	}
}

// contendScript drives c through failures, a corrupted frame and a busy
// period that ends the run with the backoff frozen and a request pending, and
// returns when it was granted the channel.
func contendScript(eng *sim.Engine, c *Contender, rng *sim.RNG) []sim.Time {
	var grants []sim.Time
	rng.Seed(9, 3)
	c.Init(eng, phys.Default(), rng, grantFunc(func() {
		grants = append(grants, eng.Now())
		if len(grants)%3 == 0 {
			c.Success()
		} else {
			c.Failure()
		}
		c.Request()
	}))
	c.Request()
	eng.At(400*sim.Microsecond, func() { c.NoteCorrupted(); c.OnBusy() })
	eng.At(700*sim.Microsecond, c.OnIdle)
	eng.At(2900*sim.Microsecond, c.OnBusy)
	eng.Run(3 * sim.Millisecond)
	return grants
}

// A contender initialised again in place, on its engine Reset, contends as a
// new one does: window, leftover slots, EIFS flag, frozen countdown and
// pending request all start over, and the timers bound the first time serve.
func TestContenderInitAgainIsANewContender(t *testing.T) {
	var freshEng sim.Engine
	var fresh Contender
	var freshRNG sim.RNG
	want := contendScript(&freshEng, &fresh, &freshRNG)
	if len(want) < 5 || !fresh.Busy() {
		t.Fatalf("script granted %d times and ended idle=%v: too quiet", len(want), !fresh.Busy())
	}
	var eng sim.Engine
	var c Contender
	var rng sim.RNG
	for round := 0; round < 3; round++ {
		if got := contendScript(&eng, &c, &rng); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: grants %v, a new contender's %v", round, got, want)
		}
		eng.Reset()
	}
	noGrant := grantFunc(func() {})
	if a := testing.AllocsPerRun(5, func() { c.Init(&eng, phys.Default(), &rng, noGrant) }); a != 0 {
		t.Fatalf("Init in place allocates %.0f objects", a)
	}
}

// A queue initialised again in place is empty, keeps the ring it grew to,
// and takes a new limit.
func TestQueueInitAgainIsAnEmptyQueue(t *testing.T) {
	var q Queue
	q.Init(4)
	for i := 0; i < 4; i++ {
		q.Push(&pkt.Packet{UID: uint64(i)})
	}
	if q.Push(&pkt.Packet{}) {
		t.Fatal("a push past the limit was taken")
	}
	for i := 0; i < 6; i++ {
		q.PushFront(&pkt.Packet{}) // grows the ring past the limit
	}
	ring := &q.buf[0]
	q.Init(8)
	if q.Len() != 0 || q.Peek() != nil || q.Pop() != nil {
		t.Fatalf("after Init: len %d", q.Len())
	}
	if &q.buf[0] != ring {
		t.Fatal("Init replaced a ring that was large enough")
	}
	for _, p := range q.buf {
		if p != nil {
			t.Fatal("Init left a packet in the ring")
		}
	}
	for i := 0; i < 8; i++ {
		if !q.Push(&pkt.Packet{UID: uint64(i)}) {
			t.Fatalf("push %d rejected under the new limit of 8", i)
		}
	}
	if q.Push(&pkt.Packet{}) || q.Pop().UID != 0 {
		t.Fatal("the re-initialised queue is not FIFO under its new limit")
	}
}
