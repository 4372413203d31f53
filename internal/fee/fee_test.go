package fee

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// A fee rendered in dollars reads back as the same fee: every Fee up to 2^50
// nanodollars (about $1.1M) survives Dollars then FromDollars.
func TestFeeRoundTrip(t *testing.T) {
	fees := []Fee{0, 1, 1 << 50}
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 100000; i++ {
		fees = append(fees, Fee(r.Int63n(1<<50+1)))
	}
	for _, f := range fees {
		for _, g := range []Fee{f, -f} {
			if back := FromDollars(g.Dollars()); back != g {
				t.Fatalf("FromDollars(%v) = %d, want %d", g.Dollars(), back, g)
			}
		}
	}
	if got := FromDollars(0.0001); got != 100_000 {
		t.Errorf("FromDollars(0.0001) = %d, want 100000", got)
	}
}

// A Fee field carries the bytes encoding/json writes for the same amount as
// a float64 of dollars, and reads them back exactly.
func TestFeeJSONMatchesFloat(t *testing.T) {
	fees := []Fee{0, 1, 7, 500, 999, 1000, 1500, 100_000, 122_415_500, 1e9, 123_456_789_012, 1 << 50, -3, -2_500}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		fees = append(fees, Fee(r.Int63n(1<<(1+r.Intn(50)))))
	}
	for _, f := range fees {
		got, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(f.Dollars())
		if string(got) != string(want) {
			t.Fatalf("Fee %d encodes as %s, float64 dollars as %s", f, got, want)
		}
		var back Fee
		if err := json.Unmarshal(got, &back); err != nil || back != f {
			t.Fatalf("Fee %d: %s decodes as %d, %v", f, got, back, err)
		}
	}
	var s struct {
		F Fee `json:"f,omitempty"`
		G Fee `json:"g"`
	}
	if b, _ := json.Marshal(s); string(b) != `{"g":0}` {
		t.Errorf("zero fees encode as %s, want omitempty to drop f", b)
	}
	s.G = 5
	if err := json.Unmarshal([]byte(`{"g":null}`), &s); err != nil || s.G != 5 {
		t.Errorf("null decoded to %d, %v; want the fee unchanged", s.G, err)
	}
	if err := json.Unmarshal([]byte(`{"g":"0.1"}`), &s); err == nil {
		t.Error("a JSON string decoded as a fee")
	}
}
