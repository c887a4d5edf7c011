package nn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 4, 8, 2)
	x := FromSlice(1, 4, []float64{1, -2, 3, -4})
	before := m.Forward(x).Clone()

	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	// Scramble the model, then restore.
	for _, p := range m.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] = rng.NormFloat64()
		}
	}
	if err := LoadParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	after := m.Forward(x)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("output changed after round trip: %v vs %v", before.Data, after.Data)
		}
	}
}

func TestLoadRejectsMismatchedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewMLP(rng, 4, 8, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	// Wrong shape.
	other := NewMLP(rng, 4, 9, 2)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Wrong count.
	deep := NewMLP(rng, 4, 8, 8, 2)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), deep.Params()); err == nil {
		t.Fatal("count mismatch accepted")
	}
	// Garbage input.
	if err := LoadParams(bytes.NewReader([]byte("junk")), src.Params()); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadIsAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 3, 4, 1)
	orig := make([]float64, len(m.Params()[0].Val.Data))
	copy(orig, m.Params()[0].Val.Data)
	// Snapshot from a different-shaped model must leave m untouched.
	other := NewMLP(rng, 3, 5, 1)
	var buf bytes.Buffer
	if err := SaveParams(&buf, other.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, m.Params()); err == nil {
		t.Fatal("mismatch accepted")
	}
	for i, v := range orig {
		if m.Params()[0].Val.Data[i] != v {
			t.Fatal("failed load modified the model")
		}
	}
}

// A snapshot whose Shapes or Data are shorter than its Names (truncated
// or hand-edited) must be rejected with an error, not index past them.
func TestLoadRejectsTruncatedSnapshot(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(4)), 2, 3, 1)
	var full bytes.Buffer
	if err := SaveParams(&full, m.Params()); err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := gob.NewDecoder(&full).Decode(&s); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]snapshot{
		"no shapes":    {Names: s.Names, Data: s.Data},
		"short shapes": {Names: s.Names, Shapes: s.Shapes[:1], Data: s.Data},
		"no data":      {Names: s.Names, Shapes: s.Shapes},
		"short data":   {Names: s.Names, Shapes: s.Shapes, Data: s.Data[:len(s.Data)-1]},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
			t.Fatal(err)
		}
		if err := LoadParams(&buf, m.Params()); err == nil {
			t.Errorf("%s: truncated snapshot accepted", name)
		}
	}
}
