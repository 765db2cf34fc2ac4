package cloud

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/poly"
)

// saturate sets every residue word of els to 0xFFFFFFFF, above every modulus:
// the encoder writes the words as they are, so the encoding has the right
// shape and not one residue in range.
func saturate(els []poly.RNSPoly) {
	for _, el := range els {
		for _, row := range el.Rows {
			for i := range row.Coeffs {
				row.Coeffs[i] = math.MaxUint32
			}
		}
	}
}

// saturatedAdds are a paper-set BFV Add and CKKS Add, requests and replies,
// whose every residue word is out of range.
func saturatedAdds(params *fv.Params, cparams *ckks.Params) []struct {
	name string
	req  *Request
	rep  *Response
} {
	ct, cct := fv.NewCiphertext(params, 2), ckks.NewCiphertext(cparams, 1, cparams.MaxLevel())
	cct.Scale = cparams.DefaultScale()
	saturate(ct.Els)
	saturate(cct.Els)
	return []struct {
		name string
		req  *Request
		rep  *Response
	}{
		{"bfv", &Request{Cmd: CmdAdd, A: ct, B: ct}, &Response{Result: ct}},
		{"ckks", &Request{Cmd: CmdCKKSAdd, CA: cct, CB: cct}, &Response{CKKSResult: cct}},
	}
}

// refusesRange fails unless err is a range refusal under sentinel.
func refusesRange(t *testing.T, what string, err, sentinel error) {
	t.Helper()
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("%s: %v, want %v for a residue out of range", what, err, sentinel)
	}
}

// TestFramingReadsNoResidue: framing reads a ciphertext's shape and never its
// residues, which are checked once, by whatever consumes them. A paper-set
// Add, request and reply, BFV and CKKS, whose every residue word is
// 0xFFFFFFFF is framed without error; the relay's check (Check) and the
// materialization (Request, Reply) each refuse it with the sentinel of its
// direction. Sent to a node directly, the request is refused by the node's
// decode: a CodeApp reply over a session that goes on serving, and nothing
// reaches the engine.
func TestFramingReadsNoResidue(t *testing.T) {
	params, cparams := paperSets()
	cd := codecFor(params, cparams)
	adds := saturatedAdds(params, cparams)
	for _, tc := range adds {
		var enc bytes.Buffer
		if err := WriteRequest(&enc, params, tc.req); err != nil {
			t.Fatal(err)
		}
		var f Frame
		if err := f.read(&cursor{buf: enc.Bytes(), left: cd.maxRequest}, cd); err != nil {
			t.Fatalf("%s request: framing refused %v, want it framed by shape", tc.name, err)
		}
		refusesRange(t, tc.name+" request Check", f.Check(), ErrMalformedRequest)
		_, err := f.Request()
		refusesRange(t, tc.name+" request Request", err, ErrMalformedRequest)
		f.Release()

		enc.Reset()
		if err := writeReply(&enc, tc.rep, params); err != nil {
			t.Fatal(err)
		}
		var raw RawReply
		if err := raw.read(&cursor{buf: enc.Bytes(), left: math.MaxInt}, cd, tc.req.Cmd); err != nil {
			t.Fatalf("%s reply: framing refused %v, want it framed by shape", tc.name, err)
		}
		refusesRange(t, tc.name+" reply Check", raw.Check(), ErrMalformedResponse)
		_, err = raw.Reply()
		refusesRange(t, tc.name+" reply Reply", err, ErrMalformedResponse)
	}

	// An Add needs no evaluation key: a paper-set node serves it as it boots.
	eng, err := engine.New(engine.Config{Params: params, CKKSParams: cparams, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		eng.Shutdown(ctx)
	})
	srv, addr := startCKKSServer(t, &ckksTestSystem{testSystem: &testSystem{params: params, eng: eng}, cp: cparams})
	cl, err := Dial(addr, params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.EnableCKKS(cparams)
	zero, czero := fv.NewCiphertext(params, 2), ckks.NewCiphertext(cparams, 1, cparams.MaxLevel())
	czero.Scale = cparams.DefaultScale()
	for round := 0; round < 2; round++ {
		for _, tc := range adds {
			served := srv.Served()
			var se *ServerError
			if _, err := cl.Do(context.Background(), tc.req); !errors.As(err, &se) || se.Code != CodeApp ||
				!strings.Contains(se.Msg, ErrMalformedRequest.Error()) || !strings.Contains(se.Msg, "out of range") {
				t.Fatalf("%s: a node answered an out-of-range Add with %v, want a CodeApp malformed-request refusal", tc.name, err)
			}
			if n := srv.Served() - served; n != 0 || cl.Broken() {
				t.Fatalf("%s: the refused Add served %d operations (session broken: %v)", tc.name, n, cl.Broken())
			}
		}
		sum, _, err := cl.Add(zero, zero)
		if err != nil || !sum.Equal(zero) {
			t.Fatalf("round %d: BFV Add after the refusals: %v", round, err)
		}
		csum, _, err := cl.CKKSAdd(czero, czero)
		if err != nil || !csum.Equal(czero) {
			t.Fatalf("round %d: CKKS Add after the refusals: %v", round, err)
		}
	}
}
