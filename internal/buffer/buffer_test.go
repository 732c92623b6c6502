package buffer

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func in(seq uint64, t float64, interesting bool, job int) Input {
	return Input{Seq: seq, CapturedAt: t, Interesting: interesting, JobID: job}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestFIFOOrder(t *testing.T) {
	b := New(3)
	for i := uint64(0); i < 3; i++ {
		if !b.Push(in(i, float64(i), false, 0), false) {
			t.Fatalf("Push %d rejected", i)
		}
	}
	for i := uint64(0); i < 3; i++ {
		got, err := b.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		if got.Seq != i {
			t.Errorf("Pop seq = %d, want %d", got.Seq, i)
		}
	}
	if _, err := b.Pop(); err != ErrEmpty {
		t.Errorf("Pop on empty = %v, want ErrEmpty", err)
	}
}

func TestPopNewestLIFO(t *testing.T) {
	b := New(3)
	for i := uint64(0); i < 3; i++ {
		b.Push(in(i, float64(i), false, 0), false)
	}
	got, err := b.PopNewest()
	if err != nil || got.Seq != 2 {
		t.Errorf("PopNewest = (%v, %v), want seq 2", got.Seq, err)
	}
	if _, err := New(1).PopNewest(); err != ErrEmpty {
		t.Errorf("PopNewest on empty = %v, want ErrEmpty", err)
	}
}

func TestOverflowAccounting(t *testing.T) {
	b := New(2)
	b.Push(in(0, 0, false, 0), false)
	b.Push(in(1, 1, false, 0), false)
	// Buffer full: interesting drop, uninteresting drop, lost reinsertion.
	if b.Push(in(2, 2, true, 0), false) {
		t.Fatal("Push into full buffer succeeded")
	}
	b.Push(in(3, 3, false, 0), false)
	b.Push(in(4, 4, true, 1), true)
	d := b.Drops()
	if d.Total != 3 || d.Interesting != 2 || d.Uninteresting != 1 {
		t.Errorf("drops = %+v, want Total 3 / Interesting 2 / Uninteresting 1", d)
	}
	if d.ReinsertionsLost != 1 {
		t.Errorf("ReinsertionsLost = %d, want 1", d.ReinsertionsLost)
	}
	if d.OverflowIncidents != 1 {
		t.Errorf("OverflowIncidents = %d, want 1 (one contiguous episode)", d.OverflowIncidents)
	}
	// Drain one, refill, overflow again: second episode.
	if _, err := b.Pop(); err != nil {
		t.Fatal(err)
	}
	b.Push(in(5, 5, false, 0), false)
	b.Push(in(6, 6, false, 0), false)
	if got := b.Drops().OverflowIncidents; got != 2 {
		t.Errorf("OverflowIncidents = %d, want 2", got)
	}
}

func TestPeakOccupancy(t *testing.T) {
	b := New(5)
	b.Push(in(0, 0, false, 0), false)
	b.Push(in(1, 0, false, 0), false)
	b.Push(in(2, 0, false, 0), false)
	b.Pop()
	b.Pop()
	if got := b.Drops().PeakOccupancy; got != 3 {
		t.Errorf("PeakOccupancy = %d, want 3", got)
	}
}

func TestOccupancyFraction(t *testing.T) {
	b := New(4)
	if b.Occupancy() != 0 {
		t.Errorf("empty Occupancy = %g, want 0", b.Occupancy())
	}
	b.Push(in(0, 0, false, 0), false)
	if b.Occupancy() != 0.25 {
		t.Errorf("Occupancy = %g, want 0.25", b.Occupancy())
	}
	if b.Free() != 3 {
		t.Errorf("Free = %d, want 3", b.Free())
	}
}

func TestJobSelection(t *testing.T) {
	b := New(10)
	// Inputs awaiting job 0 and job 1, interleaved and out of capture order.
	b.Push(Input{Seq: 5, CapturedAt: 5, JobID: 1}, false)
	b.Push(Input{Seq: 1, CapturedAt: 1, JobID: 0}, false)
	b.Push(Input{Seq: 3, CapturedAt: 3, JobID: 1, EnqueuedAt: 9}, false)
	b.Push(Input{Seq: 2, CapturedAt: 2, JobID: 0}, false)

	if got := b.PendingForJob(0); got != 2 {
		t.Errorf("PendingForJob(0) = %d, want 2", got)
	}
	if got := b.PendingForJob(7); got != 0 {
		t.Errorf("PendingForJob(7) = %d, want 0", got)
	}
	ids := b.JobIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 0 {
		t.Errorf("JobIDs = %v, want [1 0] (first-seen order)", ids)
	}
	// Oldest-by-capture for job 1 is seq 3 at index 2.
	idx := b.OldestForJob(1)
	got, err := b.At(idx)
	if err != nil || got.Seq != 3 {
		t.Errorf("OldestForJob(1) -> seq %d (err %v), want 3", got.Seq, err)
	}
	if b.OldestForJob(99) != -1 {
		t.Errorf("OldestForJob(99) = %d, want -1", b.OldestForJob(99))
	}
	// RemoveAt preserves order of the rest.
	rm, err := b.RemoveAt(idx)
	if err != nil || rm.Seq != 3 {
		t.Fatalf("RemoveAt(%d) = (%v, %v), want seq 3", idx, rm.Seq, err)
	}
	want := []uint64{5, 1, 2}
	for i, w := range want {
		got, _ := b.At(i)
		if got.Seq != w {
			t.Errorf("After RemoveAt, At(%d).Seq = %d, want %d", i, got.Seq, w)
		}
	}
}

func TestAtAndRemoveAtBounds(t *testing.T) {
	b := New(2)
	b.Push(in(0, 0, false, 0), false)
	if _, err := b.At(-1); err == nil {
		t.Error("At(-1) did not error")
	}
	if _, err := b.At(1); err == nil {
		t.Error("At(1) past end did not error")
	}
	if _, err := b.RemoveAt(5); err == nil {
		t.Error("RemoveAt(5) did not error")
	}
}

func TestPeek(t *testing.T) {
	b := New(2)
	if _, err := b.Peek(); err != ErrEmpty {
		t.Errorf("Peek empty = %v, want ErrEmpty", err)
	}
	b.Push(in(9, 0, false, 0), false)
	got, err := b.Peek()
	if err != nil || got.Seq != 9 {
		t.Errorf("Peek = (%v, %v), want seq 9", got.Seq, err)
	}
	if b.Len() != 1 {
		t.Errorf("Peek consumed the input: Len = %d", b.Len())
	}
}

func TestReset(t *testing.T) {
	b := New(1)
	b.Push(in(0, 0, true, 0), false)
	b.Push(in(1, 0, true, 0), false) // dropped
	b.Reset()
	if b.Len() != 0 || b.Drops() != (DropStats{}) {
		t.Errorf("after Reset: Len=%d Drops=%+v", b.Len(), b.Drops())
	}
}

func TestHugeCapacityDoesNotPreallocate(t *testing.T) {
	b := New(1 << 30) // the Ideal baseline's "infinite" buffer
	if cap(b.items) > 64 {
		t.Errorf("preallocated cap = %d, want ≤ 64", cap(b.items))
	}
	if !b.Push(in(0, 0, false, 0), false) {
		t.Error("Push into huge buffer rejected")
	}
}

// Property: occupancy never exceeds capacity, and conservation holds —
// pushes = pops + drops + remaining.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, capRaw uint8, ops uint16) bool {
		capacity := int(capRaw)%10 + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(capacity)
		pushes, pops := 0, 0
		for i := 0; i < int(ops); i++ {
			if rng.Intn(3) != 0 {
				b.Push(in(uint64(i), float64(i), rng.Intn(2) == 0, rng.Intn(3)), false)
				pushes++
			} else if _, err := b.Pop(); err == nil {
				pops++
			}
			if b.Len() > capacity {
				return false
			}
		}
		return pushes == pops+b.Drops().Total+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interesting + uninteresting drops always sum to total drops.
func TestPropertyDropSplit(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(3)
		for i := 0; i < int(ops); i++ {
			if rng.Intn(4) == 0 {
				b.Pop()
			} else {
				b.Push(in(uint64(i), float64(i), rng.Intn(2) == 0, 0), rng.Intn(2) == 0)
			}
		}
		d := b.Drops()
		return d.Interesting+d.Uninteresting == d.Total && d.ReinsertionsLost <= d.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJobIDsInterleavedFirstAppearance(t *testing.T) {
	b := New(10)
	for i, id := range []int{2, 0, 2, 1, 0, 1, 2, 5} {
		b.Push(Input{Seq: uint64(i), CapturedAt: float64(10 - i), JobID: id}, false)
	}
	if ids := b.JobIDs(); !reflect.DeepEqual(ids, []int{2, 0, 1, 5}) {
		t.Errorf("JobIDs = %v, want [2 0 1 5] (first-appearance order, not capture order)", ids)
	}
}

var jobIDsSink []int

// TestJobIDsAllocatesOnlyResult: JobIDs allocates exactly what appending its
// result one ID at a time does, with no seen-set on top, even past the size
// where a map would spill to the heap.
func TestJobIDsAllocatesOnlyResult(t *testing.T) {
	b := New(32)
	var want []int
	for i := 0; i < 24; i++ {
		id := (i * 7) % 12 // 12 distinct IDs, each seen twice, interleaved
		b.Push(Input{Seq: uint64(i), JobID: id}, false)
		if i < 12 {
			want = append(want, id)
		}
	}
	if ids := b.JobIDs(); !reflect.DeepEqual(ids, want) {
		t.Fatalf("JobIDs = %v, want %v", ids, want)
	}
	growth := testing.AllocsPerRun(100, func() {
		var s []int
		for _, id := range want {
			s = append(s, id)
		}
		jobIDsSink = s
	})
	if allocs := testing.AllocsPerRun(100, func() { jobIDsSink = b.JobIDs() }); allocs != growth {
		t.Errorf("JobIDs allocates %.1f per call, want %.1f (the result slice only)", allocs, growth)
	}
}
