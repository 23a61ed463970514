package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRequest drives arbitrary bytes through the request decoder and
// shape/range validation. The contract under fuzzing: DecodeRequest never
// panics, and whenever it accepts a body the returned request is fully
// valid — correct shape, correct element count, finite in-range values —
// so the engine downstream can never be handed a tensor that makes it
// panic. (The handler maps every error here to a 400.)
func FuzzDecodeRequest(f *testing.F) {
	want := [3]int{1, 4, 4}
	n := want[0] * want[1] * want[2]

	valid := Request{Shape: []int{1, 4, 4}, Data: make([]float64, n)}
	for i := range valid.Data {
		valid.Data[i] = float64(i) / float64(n)
	}
	if raw, err := json.Marshal(valid); err == nil {
		f.Add(raw)
	}
	idx := uint64(42)
	valid.Index = &idx
	if raw, err := json.Marshal(valid); err == nil {
		f.Add(raw)
	}
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[0.1],"index":-1}`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[0.1],"unknown":true}`))
	f.Add([]byte(`{"shape":[4,4,1],"data":[0.1]}`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[1e400]}`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[1e307]}`))
	f.Add([]byte(`{"shape":[1,-4,4],"data":[]}`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[0.1,0.2]}{"shape":[1,4,4]}`))
	f.Add([]byte(strings.Repeat(" ", 64) + `{"shape":[1,4,4],"data":[]}`))
	// One literal per conversion case of the number parser: 17 significant
	// digits (the 128/64 division), a round-half-even tie, and 20 digits
	// (strconv).
	f.Add([]byte(`{"shape":[1,4,4],"data":[0.90196078431372551,-0.5019607843137255]}`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[9007199254740993,9007199254740993.0]}`))
	f.Add([]byte(`{"shape":[1,4,4],"data":[0.12345678901234567890]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		// Differential contract between the decode paths: anything the fast
		// scanner accepts, the reference decoder must accept with bit-identical
		// values — the fast path may only narrow the language, never bend it.
		if fq, ok := fastDecodeRequest(body, want); ok {
			sq, err := slowDecodeRequest(body)
			if err != nil {
				t.Fatalf("fast path accepted a body the reference decoder rejects: %v\nbody: %q", err, body)
			}
			if !reflect.DeepEqual(fq.Shape, sq.Shape) || !reflect.DeepEqual(fq.Data, sq.Data) {
				t.Fatalf("fast path decoded %+v, reference %+v\nbody: %q", fq, sq, body)
			}
			for i := range fq.Data { // DeepEqual compares floats with ==, so -0 equals 0
				if math.Float64bits(fq.Data[i]) != math.Float64bits(sq.Data[i]) {
					t.Fatalf("fast path data[%d] = %v, reference %v\nbody: %q", i, fq.Data[i], sq.Data[i], body)
				}
			}
			if (fq.Index == nil) != (sq.Index == nil) || (fq.Index != nil && *fq.Index != *sq.Index) {
				t.Fatalf("fast path index %v, reference %v\nbody: %q", fq.Index, sq.Index, body)
			}
		}

		req, err := DecodeRequest(body, want)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if len(req.Shape) != 3 {
			t.Fatalf("accepted shape rank %d", len(req.Shape))
		}
		for d, s := range req.Shape {
			if s != want[d] {
				t.Fatalf("accepted shape %v, want %v", req.Shape, want)
			}
		}
		if len(req.Data) != n {
			t.Fatalf("accepted %d values for %d elements", len(req.Data), n)
		}
		for i, v := range req.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > maxAbsValue {
				t.Fatalf("accepted out-of-range data[%d] = %v", i, v)
			}
		}
		// The accepted request must materialise without panicking; this is
		// exactly the tensor the worker hands to the engine.
		if x := req.Tensor(); x.Len() != n {
			t.Fatalf("tensor has %d elements, want %d", x.Len(), n)
		}
	})
}
