package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"advhunter/internal/tensor"
)

// MaxRequestBytes bounds the decoded request body: the largest modelled
// input (GTSRB 3×32×32) is ~3k floats, so 1 MiB leaves generous headroom
// while keeping a hostile client from ballooning the heap.
const MaxRequestBytes = 1 << 20

// maxAbsValue bounds each pixel value. Modelled inputs live in [0, 1];
// anything beyond this is a malformed client, rejected before it reaches
// the engine.
const maxAbsValue = 1e6

// Request is one detection query: a single image in the service's input
// shape, plus an optional explicit sample index.
//
// The index keys the query's measurement-noise stream: the HPC reading is a
// pure function of (model, input, service seed, index) regardless of which
// worker replica serves it or how requests interleave — the same contract
// the offline pipeline has. Clients that want reproducible readings supply
// the index; clients that omit it get a server-assigned monotone index
// (fresh noise per query, deterministic per process only in arrival order).
type Request struct {
	// Shape is the image shape [C, H, W]; it must match the served model.
	Shape []int `json:"shape"`
	// Data is the image in row-major order, len == C*H*W, values finite.
	Data []float64 `json:"data"`
	// Index optionally keys the measurement-noise stream.
	Index *uint64 `json:"index,omitempty"`
}

// NewRequest builds the request for one image tensor (shape [C,H,W]) with
// an explicit noise index — the client-side helper that load generators
// and tests use.
func NewRequest(x *tensor.Tensor, index uint64) Request {
	idx := index
	return Request{
		Shape: append([]int(nil), x.Shape()...),
		Data:  append([]float64(nil), x.Data()...),
		Index: &idx,
	}
}

// Tensor materialises the validated request image.
func (q *Request) Tensor() *tensor.Tensor {
	return tensor.FromSlice(q.Data, q.Shape...)
}

// DecodeRequest parses and validates one request body against the served
// input shape [C, H, W]. Every malformed body — bad JSON, trailing garbage,
// unknown fields, wrong shape, wrong element count, non-finite or
// out-of-range values — returns an error (the handler answers 400); no
// input may panic.
//
// Decoding is the serve hot path's single biggest CPU cost (a CIFAR-shaped
// body is ~3k JSON floats), so canonical bodies take a hand-rolled strict
// scanner; anything the scanner is not certain about falls back to the
// reference encoding/json path, which keeps the accepted language and the
// decoded values exactly those of the standard decoder
// (FuzzDecodeRequest differentially enforces this).
func DecodeRequest(body []byte, want [3]int) (*Request, error) {
	if len(body) == 0 {
		return nil, errors.New("empty request body")
	}
	if len(body) > MaxRequestBytes {
		return nil, fmt.Errorf("request body is %d bytes, limit %d", len(body), MaxRequestBytes)
	}
	q, ok := fastDecodeRequest(body, want)
	if !ok {
		var err error
		if q, err = slowDecodeRequest(body); err != nil {
			return nil, err
		}
	}
	if err := q.validate(want); err != nil {
		return nil, err
	}
	return q, nil
}

// slowDecodeRequest is the reference decoder: encoding/json with unknown
// fields disallowed and trailing content rejected.
func slowDecodeRequest(body []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var q Request
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	// Reject trailing content after the JSON object (two concatenated
	// bodies, or garbage after a valid one).
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("trailing data after request object")
	}
	return &q, nil
}

// validate applies the shape and range rules shared by both decode paths.
func (q *Request) validate(want [3]int) error {
	if len(q.Shape) != 3 {
		return fmt.Errorf("shape must have 3 dims [C,H,W], got %d", len(q.Shape))
	}
	for d, s := range q.Shape {
		if s != want[d] {
			return fmt.Errorf("shape %v does not match served model %v", q.Shape, want)
		}
	}
	n := want[0] * want[1] * want[2]
	if len(q.Data) != n {
		return fmt.Errorf("data has %d values, shape %v needs %d", len(q.Data), q.Shape, n)
	}
	for i, v := range q.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("data[%d] is not finite", i)
		}
		if v < -maxAbsValue || v > maxAbsValue {
			return fmt.Errorf("data[%d] = %g is out of range", i, v)
		}
	}
	return nil
}

// Response is one detection decision, mirrored back with the index that
// keyed its noise stream. Scores and Flags are keyed by channel name (perf
// event names for per-event backends, "fusion"/"confidence" for the
// combinators); encoding/json sorts map keys, so equal decisions render
// byte-identical bodies — the property the determinism tests assert end to
// end.
type Response struct {
	Index          uint64 `json:"index"`
	PredictedClass int    `json:"predicted_class"`
	ClassName      string `json:"class_name,omitempty"`
	Backend        string `json:"backend"`
	Modelled       bool   `json:"modelled"`
	Adversarial    bool   `json:"adversarial"`
	// Tier names the measurement tier that decided the verdict ("twin" or
	// "exact"). Present only under tiered serving (Config.Twin set); plain
	// exact serving renders byte-identical bodies to earlier versions.
	Tier   string             `json:"tier,omitempty"`
	Scores map[string]float64 `json:"scores"`
	Flags  map[string]bool    `json:"flags"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}
