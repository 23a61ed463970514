package branch

import (
	"testing"
	"testing/quick"

	"advhunter/internal/rng"
)

func TestStaticPredictsTaken(t *testing.T) {
	c := NewCounted(NewStatic())
	for _, taken := range []bool{true, false, true, true, false} {
		c.Feed(0x10, taken)
	}
	if c.S.Branches != 5 || c.S.Mispredicts != 2 {
		t.Fatalf("static stats: %+v", c.S)
	}
}

func TestTwoBitLearnsConstantStream(t *testing.T) {
	c := NewCounted(NewTwoBit(10))
	for i := 0; i < 100; i++ {
		c.Feed(0x40, true)
	}
	if c.S.Mispredicts > 1 {
		t.Fatalf("two-bit mispredicted a constant stream %d times", c.S.Mispredicts)
	}
	// A constant not-taken stream needs at most 2 transitions.
	c2 := NewCounted(NewTwoBit(10))
	for i := 0; i < 100; i++ {
		c2.Feed(0x80, false)
	}
	if c2.S.Mispredicts > 2 {
		t.Fatalf("two-bit mispredicted constant-NT stream %d times", c2.S.Mispredicts)
	}
}

func TestTwoBitHystersisOnRareFlips(t *testing.T) {
	// T T T N T T T N ... : the single N must not flip the prediction.
	c := NewCounted(NewTwoBit(10))
	miss := 0
	for i := 0; i < 400; i++ {
		taken := i%4 != 3
		pre := c.S.Mispredicts
		c.Feed(0x99, taken)
		if c.S.Mispredicts != pre && taken {
			miss++
		}
	}
	if miss > 2 {
		t.Fatalf("two-bit lost its bias after rare flips (%d taken-mispredicts)", miss)
	}
}

func TestGShareLearnsAlternatingPattern(t *testing.T) {
	// T N T N ... is hard for bimodal but trivial for history-based gshare.
	bimodal := NewCounted(NewTwoBit(12))
	gshare := NewCounted(NewGShare(12, 8))
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		bimodal.Feed(0x123, taken)
		gshare.Feed(0x123, taken)
	}
	if gshare.S.Rate() > 0.05 {
		t.Fatalf("gshare failed the alternating pattern: rate %.3f", gshare.S.Rate())
	}
	if gshare.S.Rate() >= bimodal.S.Rate() {
		t.Fatalf("gshare (%.3f) not better than bimodal (%.3f) on periodic stream",
			gshare.S.Rate(), bimodal.S.Rate())
	}
}

func TestGShareOnRandomStreamNearChance(t *testing.T) {
	g := NewCounted(NewGShare(12, 12))
	for i, taken := range RandomOutcomes(42, 20000, 0.5) {
		g.Feed(uint64(0x200+i%7), taken)
	}
	if r := g.S.Rate(); r < 0.35 || r > 0.65 {
		t.Fatalf("gshare on random stream: rate %.3f, want ~0.5", r)
	}
}

func TestPredictorsExploitBias(t *testing.T) {
	// 90%-taken stream: a learning predictor must beat the 10% floor
	// substantially less than chance.
	g := NewCounted(NewGShare(12, 8))
	for _, taken := range RandomOutcomes(7, 20000, 0.9) {
		g.Feed(0x300, taken)
	}
	if r := g.S.Rate(); r > 0.2 {
		t.Fatalf("gshare on 90%% biased stream: rate %.3f", r)
	}
}

func TestFeedBulkAccounting(t *testing.T) {
	c := NewCounted(NewTwoBit(8))
	c.FeedBulk(0x11, 1000)
	if c.S.Branches != 1000 || c.S.Mispredicts != 1 {
		t.Fatalf("bulk stats %+v", c.S)
	}
	c.FeedBulk(0x11, 0)
	if c.S.Branches != 1000 {
		t.Fatal("zero-iteration bulk changed stats")
	}
}

func TestCountedReset(t *testing.T) {
	c := NewCounted(NewGShare(8, 4))
	c.Feed(1, true)
	c.Reset()
	if c.S.Branches != 0 || c.S.Mispredicts != 0 {
		t.Fatal("reset left stats")
	}
}

func TestRateZeroWhenIdle(t *testing.T) {
	var s Stats
	if s.Rate() != 0 {
		t.Fatal("idle rate")
	}
}

// Property: mispredicts never exceed branches.
func TestMispredictBound(t *testing.T) {
	f := func(seed uint64) bool {
		c := NewCounted(NewGShare(10, 6))
		for i, taken := range RandomOutcomes(seed, 500, 0.7) {
			c.Feed(uint64(i%13), taken)
		}
		return c.S.Mispredicts <= c.S.Branches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorNames(t *testing.T) {
	for _, p := range []Predictor{NewStatic(), NewTwoBit(4), NewGShare(4, 2)} {
		if p.Name() == "" {
			t.Fatal("empty predictor name")
		}
	}
}

func BenchmarkGShare(b *testing.B) {
	g := NewGShare(12, 12)
	for i := 0; i < b.N; i++ {
		g.Predict(uint64(i&1023), i&3 != 0)
	}
}

// RandomOutcomes produces a deterministic biased branch stream.
func RandomOutcomes(seed uint64, n int, pTaken float64) []bool {
	r := rng.New(seed)
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Float64() < pTaken
	}
	return out
}
