package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Schedule(3, func() { order = append(order, "c") })
	k.Schedule(1, func() { order = append(order, "a") })
	k.Schedule(2, func() { order = append(order, "b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %v, want 3", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var wake units.Seconds
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
		p.Sleep(1.5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 2.5 {
		t.Fatalf("woke at %v, want 2.5", wake)
	}
	if k.Now() != 4 {
		t.Fatalf("end time %v, want 4", k.Now())
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel(1)
	var started units.Seconds
	k.SpawnAt(7, "late", func(p *Proc) { started = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 7 {
		t.Fatalf("started at %v, want 7", started)
	}
}

func TestParkUnpark(t *testing.T) {
	k := NewKernel(1)
	var got units.Seconds
	var consumer *Proc
	consumer = k.Spawn("consumer", func(p *Proc) {
		p.Park(reason("waiting for producer"))
		got = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(3)
		consumer.UnparkAt(p.Now() + 2) // message arrives 2s later
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("consumer resumed at %v, want 5", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("stuck-a", func(p *Proc) { p.Park(reason("waiting for godot")) })
	k.Spawn("stuck-b", func(p *Proc) { p.Park(reason("also waiting")) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Parked) != 2 {
		t.Fatalf("parked = %v, want 2 entries", dl.Parked)
	}
	if !strings.Contains(dl.Error(), "godot") {
		t.Fatalf("deadlock message should include park reason: %q", dl.Error())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want propagated panic, got %v", err)
	}
}

func TestLiveProcs(t *testing.T) {
	k := NewKernel(1)
	if k.LiveProcs() != 0 {
		t.Fatal("no procs yet")
	}
	k.Spawn("a", func(p *Proc) { p.Sleep(2) })
	k.Spawn("b", func(p *Proc) { p.Sleep(4) })
	var at1, at3, at5 int
	k.Schedule(1, func() { at1 = k.LiveProcs() })
	k.Schedule(3, func() { at3 = k.LiveProcs() })
	k.Schedule(5, func() { at5 = k.LiveProcs() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 2 || at3 != 1 || at5 != 0 {
		t.Fatalf("live counts = %d,%d,%d; want 2,1,0", at1, at3, at5)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) string {
		k := NewKernel(seed)
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			k.Spawn(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := units.Seconds(k.RNG().Float64())
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%.9f", name, float64(p.Now())))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed gave different traces:\n%s\n%s", a, b)
	}
	c := run(43)
	if a == c {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) { p.Sleep(-1) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "negative sleep") {
		t.Fatalf("want negative-sleep panic, got %v", err)
	}
}

// goroutineCount samples runtime.NumGoroutine with settling retries, so
// a baseline is not inflated by goroutines still unwinding.
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// goroutinesWithin polls runtime.NumGoroutine until it is at most limit
// or two seconds pass, and returns the last count. A drained process
// answers the drain handshake before its goroutine exits, so the count
// can lag the drain by a scheduler quantum; a goroutine that never
// exits still exceeds limit at the deadline.
func goroutinesWithin(limit int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// Satellite regression: Run must terminate the goroutines of parked
// processes when it returns via deadlock — before the drain fix, every
// deadlocked run leaked one goroutine per parked process and repeated
// cluster construction in benchmarks accumulated them.
func TestRunDrainsDeadlockedGoroutines(t *testing.T) {
	before := goroutineCount()
	for i := 0; i < 20; i++ {
		k := NewKernel(int64(i))
		k.Spawn("stuck-a", func(p *Proc) { p.Park(reason("waiting forever")) })
		k.Spawn("stuck-b", func(p *Proc) { p.Park(reason("also waiting")) })
		var dl *DeadlockError
		if err := k.Run(); !errors.As(err, &dl) {
			t.Fatalf("want DeadlockError, got %v", err)
		}
		if n := k.LiveProcs(); n != 0 {
			t.Fatalf("LiveProcs = %d after Run, want 0", n)
		}
	}
	if after := goroutinesWithin(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after 20 deadlocked runs", before, after)
	}
}

// A Run stopped early by a failing process must likewise drain sleeping
// processes and processes whose start event never fired.
func TestRunDrainsStoppedGoroutines(t *testing.T) {
	before := goroutineCount()
	for i := 0; i < 20; i++ {
		k := NewKernel(int64(i))
		k.Spawn("sleeper", func(p *Proc) { p.Sleep(1000) })
		k.SpawnAt(500, "late", func(p *Proc) { p.Sleep(1) })
		k.Spawn("bomb", func(p *Proc) {
			p.Sleep(1)
			panic("stop")
		})
		if err := k.Run(); err == nil || !strings.Contains(err.Error(), "stop") {
			t.Fatalf("want the failing process's error, got %v", err)
		}
		if n := k.LiveProcs(); n != 0 {
			t.Fatalf("LiveProcs = %d after stopped Run, want 0", n)
		}
	}
	if after := goroutinesWithin(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after 20 stopped runs", before, after)
	}
}

// Draining unwinds via panic so user defers still run — cleanup written
// by process code must execute even when the simulation deadlocks.
func TestDrainRunsProcessDefers(t *testing.T) {
	k := NewKernel(1)
	cleaned := false
	k.Spawn("careful", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Park(reason("never woken"))
	})
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if !cleaned {
		t.Fatal("process defer did not run during drain")
	}
}

// A process defer that blocks again (Sleep/Park inside a defer) while
// its goroutine is being drained must unwind immediately, not desync the
// drain handshake.
func TestDrainSurvivesBlockingDefers(t *testing.T) {
	before := goroutineCount()
	for i := 0; i < 10; i++ {
		k := NewKernel(int64(i))
		k.Spawn("nested", func(p *Proc) {
			defer p.Sleep(1) // blocks during the abort unwind
			p.Park(reason("never woken"))
		})
		var dl *DeadlockError
		if err := k.Run(); !errors.As(err, &dl) {
			t.Fatalf("want DeadlockError, got %v", err)
		}
		if n := k.LiveProcs(); n != 0 {
			t.Fatalf("LiveProcs = %d after drain with blocking defer, want 0", n)
		}
	}
	if after := goroutinesWithin(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// RunCallback must drain mid-run-spawned processes on its error path
// too: a proc panic with another proc parked must not leak the parked
// goroutine.
func TestRunCallbackErrorPathDrains(t *testing.T) {
	before := goroutineCount()
	for i := 0; i < 10; i++ {
		k := NewKernel(int64(i))
		k.Schedule(1, func() {
			k.Spawn("parked", func(p *Proc) { p.Park(reason("waiting forever")) })
			k.Spawn("bomb", func(p *Proc) {
				p.Sleep(1)
				panic("boom")
			})
		})
		err := k.RunCallback()
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("want propagated panic, got %v", err)
		}
		if n := k.LiveProcs(); n != 0 {
			t.Fatalf("LiveProcs = %d after error-path RunCallback, want 0", n)
		}
	}
	if after := goroutinesWithin(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// RunCallback drains pure event-driven simulations and preserves event
// ordering exactly like Run.
func TestRunCallback(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(units.Seconds(100-i), func() { order = append(order, i) })
	}
	if err := k.RunCallback(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("fired %d events, want 100", len(order))
	}
	for j := 1; j < len(order); j++ {
		if order[j] > order[j-1] {
			t.Fatalf("events out of time order: %v", order[:j+1])
		}
	}
}

// RunCallback falls back to full process semantics when a callback
// spawns processes mid-run.
func TestRunCallbackSpawnFallback(t *testing.T) {
	k := NewKernel(1)
	var woke units.Seconds
	k.Schedule(1, func() {
		k.Spawn("late-proc", func(p *Proc) {
			p.Sleep(2)
			woke = p.Now()
		})
	})
	if err := k.RunCallback(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("process woke at %v, want 3", woke)
	}
}

// Heap property: an adversarial mix of push times drains in
// nondecreasing (t, seq) order. Guards the hand-rolled 4-ary sift code.
func TestEventHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		var fired []units.Seconds
		n := 200
		var schedule func()
		schedule = func() {
			// Half the events schedule more events while running.
			if n > 0 && rng.Float64() < 0.5 {
				n--
				k.After(units.Seconds(rng.Float64()*3), schedule)
			}
			fired = append(fired, k.Now())
		}
		for i := 0; i < 50; i++ {
			k.Schedule(units.Seconds(rng.Float64()*10), schedule)
		}
		if err := k.RunCallback(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnparkNotParkedPanics(t *testing.T) {
	k := NewKernel(1)
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) { p.Sleep(100) })
	k.Spawn("attacker", func(p *Proc) {
		p.Sleep(1)
		defer func() {
			if recover() == nil {
				t.Error("unparking a non-parked proc must panic")
			}
		}()
		victim.UnparkAt(p.Now())
	})
	_ = k.Run()
}

// reason is a constant Park reason. Converting a constant to an
// interface does not allocate.
type reason string

func (r reason) String() string { return string(r) }

// waitReason is a Park reason whose text is built only for a deadlock
// report.
type waitReason struct{ slot int }

func (w *waitReason) String() string { return fmt.Sprintf("waiting on slot %d", w.slot) }

// TestProcHandoffsAllocateNothing pins the handoff contract: every
// process builds its wake event once, at spawn, so a Sleep, a
// SleepUntil and a Park woken by UnparkAt (its reason a constant or a
// pointer) allocate nothing once the event heap has grown to its
// working size.
func TestProcHandoffsAllocateNothing(t *testing.T) {
	k := NewKernel(1)
	allocs := -1.0
	k.Spawn("cycler", func(p *Proc) {
		unpark := func() { p.UnparkAt(k.Now() + 1) }
		why := &waitReason{slot: 3}
		cycle := func() {
			p.Sleep(1)
			p.SleepUntil(p.Now() + 1)
			k.After(0, unpark)
			p.Park(reason("waiting for the unpark event"))
			k.After(0, unpark)
			p.Park(why)
		}
		cycle()
		allocs = testing.AllocsPerRun(100, cycle)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a Sleep/SleepUntil/Park cycle allocates %v times, want 0", allocs)
	}
}

// TestParkReasonInDeadlockReport: a Park reason is formatted when the
// report is built, from the Stringer's state at that moment.
func TestParkReasonInDeadlockReport(t *testing.T) {
	k := NewKernel(1)
	why := &waitReason{slot: 1}
	k.Spawn("stuck", func(p *Proc) { p.Park(why) })
	k.Spawn("bumper", func(p *Proc) { p.Sleep(1); why.slot = 2 })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if want := []string{"stuck: waiting on slot 2"}; !reflect.DeepEqual(dl.Parked, want) {
		t.Fatalf("parked %q, want %q", dl.Parked, want)
	}
}
