package tdcs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
)

// growShrinkPhases are the live-pair populations the floor oracle's stream
// passes through in turn. Growing is inserts of fresh pairs and shrinking
// is deletes of random live ones, so the sample level, and the tracking
// floor with it, moves up and down several levels.
var growShrinkPhases = []int{200_000, 200, 50_000, 10, 30_000}

// growShrinkStream returns the oracle's stream and the offset at which
// each phase ends. Destinations are skewed over 1,000 addresses, so the top
// of the answer holds a few heavy destinations above many light ones.
func growShrinkStream(rng *rand.Rand) (stream []dcs.KeyDelta, ends []int) {
	var live []uint64
	for _, target := range growShrinkPhases {
		for len(live) < target {
			key := hashing.PairKey(rng.Uint32(), uint32(rng.Intn(1+rng.Intn(1000))))
			live = append(live, key)
			stream = append(stream, dcs.KeyDelta{Key: key, Delta: 1})
		}
		for len(live) > target {
			i := rng.Intn(len(live))
			stream = append(stream, dcs.KeyDelta{Key: live[i], Delta: -1})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		ends = append(ends, len(stream))
	}
	return stream, ends
}

// sameAnswers reports the first query whose answer on s differs from its
// answer on ref. s is queried first, so a query that has to lower s's
// floor does so before it answers.
func sameAnswers(ref, s *Sketch) error {
	for _, k := range []int{1, 10, 100} {
		if got, want := s.TopK(k), ref.TopK(k); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("TopK(%d) = %v, want %v", k, got, want)
		}
	}
	for _, tau := range []int64{1, 64, 1024} {
		if got, want := s.Threshold(tau), ref.Threshold(tau); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Threshold(%d) = %v, want %v", tau, got, want)
		}
	}
	if got, want := s.EstimateDistinctPairs(), ref.EstimateDistinctPairs(); got != want {
		return fmt.Errorf("EstimateDistinctPairs = %d, want %d", got, want)
	}
	if got, want := s.SampleSize(), ref.SampleSize(); got != want {
		return fmt.Errorf("SampleSize = %d, want %d", got, want)
	}
	for _, dest := range []uint32{0, 1, 2, 999} {
		if got, want := s.Estimate(dest), ref.Estimate(dest); got != want {
			return fmt.Errorf("Estimate(%d) = %d, want %d", dest, got, want)
		}
	}
	return nil
}

// TestFloorMatchesRebuild is the tracking floor's oracle. The grow/shrink
// stream runs through three batch shapes: one record at a time
// (UpdateKey), 37-record UpdateBatch calls, and 512-record located batches
// (the server's frame size). Every 4,099 updates, and at the end of each
// phase, every query answer must equal the answer of a sketch rebuilt from
// the same counters, and the tracked levels must equal the rebuilt ones;
// at the end of each phase they must also equal a recount of the counters.
// The floor must have moved in both directions.
func TestFloorMatchesRebuild(t *testing.T) {
	const checkEvery = 4099
	cfg := dcs.Config{Tables: 3, Buckets: 128, Seed: 1}
	stream, ends := growShrinkStream(rand.New(rand.NewSource(61)))
	for _, batch := range []int{1, 37, 512} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			sk := mustNew(t, cfg)
			var lb dcs.Located
			apply := func(part []dcs.KeyDelta) {
				switch batch {
				case 1:
					sk.UpdateKey(part[0].Key, part[0].Delta)
				case 512:
					sk.Base().Locator().LocateBatch(&lb, part)
					sk.UpdateLocatedBatch(&lb)
				default:
					sk.UpdateBatch(part)
				}
			}
			ref := mustNew(t, cfg)
			check := func(at int, recount bool) {
				t.Helper()
				ref.Reset()
				if err := ref.Merge(sk); err != nil {
					t.Fatal(err)
				}
				if err := sameAnswers(ref, sk); err != nil {
					t.Fatalf("after %d updates (floor %d): %v", at, sk.TrackingFloor(), err)
				}
				if err := sameTracking(ref, sk); err != nil {
					t.Fatalf("after %d updates: %v", at, err)
				}
				if recount {
					if err := recountTracking(sk); err != nil {
						t.Fatalf("after %d updates: %v", at, err)
					}
				}
			}
			off, nextCheck := 0, checkEvery
			for _, end := range ends {
				for off < end {
					n := min(batch, end-off)
					apply(stream[off : off+n])
					if off += n; off >= nextCheck {
						check(off, false)
						nextCheck += checkEvery
					}
				}
				check(off, true)
			}
			if sk.FloorRaises() == 0 || sk.FloorLowers() == 0 {
				t.Fatalf("the floor rose %d and fell %d times; the oracle needs both", sk.FloorRaises(), sk.FloorLowers())
			}
			t.Logf("%d updates: floor rose %d times, fell %d times", len(stream), sk.FloorRaises(), sk.FloorLowers())
		})
	}
}

// TestFloorRaisesAndResets checks the floor's bookkeeping: it starts at 0,
// rises as the population grows, never sits above the sample level, and
// Reset returns it to 0 with every level empty.
func TestFloorRaisesAndResets(t *testing.T) {
	sk := mustNew(t, dcs.Config{Tables: 3, Buckets: 128, Seed: 2})
	if sk.TrackingFloor() != 0 {
		t.Fatalf("a new sketch has floor %d", sk.TrackingFloor())
	}
	stream, _ := growShrinkStream(rand.New(rand.NewSource(62)))
	sk.UpdateBatch(stream[:50_000])
	floor := sk.TrackingFloor()
	if floor == 0 || sk.FloorRaises() == 0 {
		t.Fatalf("50k inserts left the floor at %d after %d raises", floor, sk.FloorRaises())
	}
	if b := sk.SampleLevel(); b < floor || b > floor+floorSlack {
		t.Fatalf("sample level %d outside [floor, floor+%d] = [%d, %d]", b, floorSlack, floor, floor+floorSlack)
	}
	for l := 0; l < floor; l++ {
		if sk.NumSingletons(l) != 0 {
			t.Fatalf("level %d below the floor %d reports %d singletons", l, floor, sk.NumSingletons(l))
		}
	}
	sk.Reset()
	if sk.TrackingFloor() != 0 {
		t.Fatalf("Reset left the floor at %d", sk.TrackingFloor())
	}
	if err := recountTracking(sk); err != nil {
		t.Fatal(err)
	}
}

// TestFloorRaiseAllocationFree checks that the update path's floor raise
// clears the levels it drops in place. Each round tracks every level from
// the counters (as a query that lowers the floor to 0 would; the query path
// may allocate), then raises the floor to the sample level's, which must
// not allocate.
func TestFloorRaiseAllocationFree(t *testing.T) {
	if debugAssertions {
		t.Skip("dcsdebug builds recount the tracking state at every floor move")
	}
	sk := mustNew(t, dcs.Config{Tables: 3, Buckets: 128, Seed: 3})
	stream, _ := growShrinkStream(rand.New(rand.NewSource(63)))
	sk.UpdateBatch(stream[:40_000])
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		sk.clearTracked()
		for sk.floor = sk.base.LevelsAllocated(); sk.floor > 0; {
			sk.floor--
			sk.trackLevel(sk.floor)
		}
		b, _ := sk.trackedLevel()
		if b-floorSlack <= 0 {
			t.Fatalf("sample level %d leaves nothing to drop", b)
		}
		runtime.ReadMemStats(&before)
		sk.raiseFloor(b)
		runtime.ReadMemStats(&after)
		if sk.TrackingFloor() != b-floorSlack {
			t.Fatalf("round %d: floor %d after the raise, want %d", round, sk.TrackingFloor(), b-floorSlack)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("round %d: dropping levels [0, %d) allocated %d times", round, b-floorSlack, n)
		}
		if err := recountTracking(sk); err != nil {
			t.Fatal(err)
		}
	}
}
