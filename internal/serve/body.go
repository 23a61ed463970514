package serve

import (
	"io"
	"net/http"
	"sync"
)

// Body is one request body read into a pooled buffer. Callers hand it back
// with Release once nothing references Bytes any more; the decoded Request
// copies every value out, so a body can be released right after decoding.
type Body struct {
	buf []byte
}

// bodies recycles body buffers across requests. ReadBody stops at
// MaxRequestBytes+1 bytes, which bounds the buffer an idle entry holds.
var bodies = sync.Pool{New: func() any { return new(Body) }}

// ReadBody reads r's body, limited to MaxRequestBytes by
// http.MaxBytesReader, into a pooled buffer pre-sized from Content-Length.
// On error the buffer is already back in the pool.
func ReadBody(w http.ResponseWriter, r *http.Request) (*Body, error) {
	b := bodies.Get().(*Body)
	buf := b.buf[:0]
	// One byte beyond the declared length lets the read that reports EOF
	// land without growing the buffer.
	if n := min(r.ContentLength, MaxRequestBytes) + 1; n > 1 && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	rd := http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			b.buf = buf
			return b, nil
		}
		if err != nil {
			b.buf = buf
			b.Release()
			return nil, err
		}
	}
}

// Bytes returns the body's bytes; they are valid until Release.
func (b *Body) Bytes() []byte { return b.buf }

// Release returns the buffer to the pool.
func (b *Body) Release() { bodies.Put(b) }
