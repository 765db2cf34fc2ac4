package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// fuzzCKKS builds the CKKS parameter set and one ciphertext for seed frames.
var fuzzCKKS = sync.OnceValues(func() (*ckks.Params, *ckks.Ciphertext) {
	cp, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		panic(err)
	}
	prng := sampler.NewPRNG(41)
	_, pk, _ := ckks.NewKeyGenerator(cp, prng).GenKeys()
	pt, err := ckks.NewEncoder(cp).Encode([]float64{0.5, -0.25}, cp.MaxLevel(), cp.DefaultScale())
	if err != nil {
		panic(err)
	}
	return cp, ckks.NewEncryptor(cp, pk, prng).Encrypt(pt)
})

// addFrameSeeds seeds a fuzz target with a valid encoding and the mutations
// that reach the deep paths fastest: a truncation, a flipped byte, trailing
// garbage (a mux payload may carry it), and an out-of-range residue in the
// last word of the message, which framing accepts and the check and the
// decode after it refuse.
func addFrameSeeds(f *testing.F, enc []byte, add func(b []byte)) {
	add(enc)
	add(enc[:len(enc)/2])
	flipped := bytes.Clone(enc)
	flipped[len(enc)/3] ^= 0x40
	add(flipped)
	add(append(bytes.Clone(enc), "trailing"...))
	if len(enc) > 64 {
		over := bytes.Clone(enc)
		copy(over[len(over)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
		add(over)
	}
}

// claimMaxBlob rewrites the length field of an encoded message that ends in a
// ten-byte blob to claim the largest key blob the parameter sets allow: the
// body then stops ten bytes into its claim — the cheapest way a peer can ask
// the reader to reserve memory.
func claimMaxBlob(enc []byte, params *fv.Params, cparams *ckks.Params) []byte {
	binary.LittleEndian.PutUint32(enc[len(enc)-14:], uint32(codecFor(params, cparams).maxKeyBlob))
	return enc
}

// maxClaimKeyImport is that claim in a CmdKeyImport request.
func maxClaimKeyImport(params *fv.Params, cparams *ckks.Params) []byte {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, params, &Request{Cmd: CmdKeyImport, ID: 15, Tenant: "erin", Blob: []byte("0123456789")}); err != nil {
		panic(err)
	}
	return claimMaxBlob(buf.Bytes(), params, cparams)
}

// maxClaimKeyExportReply is the same claim in the reply direction: a forged
// key-export reply.
func maxClaimKeyExportReply(params *fv.Params, cparams *ckks.Params) []byte {
	var buf bytes.Buffer
	if err := writeReply(&buf, Blob("0123456789"), params); err != nil {
		panic(err)
	}
	return claimMaxBlob(buf.Bytes(), params, cparams)
}

// paperSets are the paper's BFV and CKKS parameter sets, whose key blobs
// are the largest the tests frame.
var paperSets = sync.OnceValues(func() (*fv.Params, *ckks.Params) {
	params, err := fv.NewParams(fv.PaperConfig(65537))
	if err != nil {
		panic(err)
	}
	cparams, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		panic(err)
	}
	return params, cparams
})

// TestFramingReservesOnlyWhatArrived: a payload that claims the largest legal
// key blob and ends ten bytes into it is refused as truncated having cost the
// reader nothing — not the ~166 MB of the claim at the paper sets, which any
// connection could ask of a node (CmdKeyImport) or a node of a router (a
// forged CmdKeyExport reply). What a payload's bytes cost on their way in is
// TestMuxFrameReservesOnlyWhatArrived's.
func TestFramingReservesOnlyWhatArrived(t *testing.T) {
	params, cparams := paperSets()
	if claim := codecFor(params, cparams).maxKeyBlob; claim < 64<<20 {
		t.Fatalf("the largest key blob is %d bytes: too small for this test to mean anything", claim)
	}
	for _, tc := range []struct {
		name     string
		read     func() error
		sentinel error
	}{
		{"key import request", func() error {
			c := cursor{buf: maxClaimKeyImport(params, cparams), left: codecFor(params, cparams).maxRequest}
			return new(Frame).read(&c, codecFor(params, cparams))
		}, ErrMalformedRequest},
		{"key export reply", func() error {
			c := cursor{buf: maxClaimKeyExportReply(params, cparams), left: math.MaxInt}
			return new(RawReply).read(&c, codecFor(params, cparams), CmdKeyExport)
		}, ErrMalformedResponse},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.sentinel) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err %v, want %v wrapping io.ErrUnexpectedEOF", tc.name, err, tc.sentinel)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Errorf("%s: framing allocated %d bytes for a body of 10", tc.name, got)
		}
	}
}

// TestKeyBlobOverTheBoundRefusedUpFront: a key import whose blob length is
// one byte over the bound is refused on the length word alone, though all ten
// bytes of the body are there.
func TestKeyBlobOverTheBoundRefusedUpFront(t *testing.T) {
	params := fuzzParams()
	cparams, _ := fuzzCKKS()
	for _, cp := range []*ckks.Params{nil, cparams} {
		cd := codecFor(params, cp)
		enc := maxClaimKeyImport(params, cp)
		binary.LittleEndian.PutUint32(enc[len(enc)-14:], uint32(cd.maxKeyBlob+1))
		err := new(Frame).read(&cursor{buf: enc, left: cd.maxRequest}, cd)
		if !errors.Is(err, ErrMalformedRequest) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("CKKS %v: blob length %d: err %v, want %v on the length", cp != nil, cd.maxKeyBlob+1, err, ErrMalformedRequest)
		}
	}
}

// maxClaimMuxFrame is a mux frame header claiming a payload of claim bytes —
// both its checksums valid, as any peer can make them — followed by ten
// bytes of it.
func maxClaimMuxFrame(claim int) []byte {
	var hdr [muxHeaderLen]byte
	hdr[0] = MuxFrameRequest
	binary.LittleEndian.PutUint64(hdr[1:9], 3)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(claim))
	binary.LittleEndian.PutUint32(hdr[17:21], muxChecksum(hdr[:17]))
	return append(hdr[:], "0123456789"...)
}

// TestMuxFrameReservesOnlyWhatArrived is TestFramingReservesOnlyWhatArrived
// for the mux reader, which sits in front of the cursor on every multiplexed
// connection: a frame header claiming the largest legal payload used to
// reserve all of it — pooled or not — before a byte of the body arrived.
func TestMuxFrameReservesOnlyWhatArrived(t *testing.T) {
	claim := codecFor(fuzzParams(), nil).maxMuxPayload
	if claim < 8<<20 {
		t.Fatalf("the largest mux payload is %d bytes: too small for this test to mean anything", claim)
	}
	data := maxClaimMuxFrame(claim)
	limit := func() int { return claim }
	for _, pooled := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, buf, err := readMuxFrame(bytes.NewReader(data), limit, pooled)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformedMuxFrame) || !errors.Is(err, io.ErrUnexpectedEOF) || buf != nil {
			t.Errorf("pooled=%v: err %v (buffer %v), want ErrMalformedMuxFrame wrapping io.ErrUnexpectedEOF and no buffer", pooled, err, buf != nil)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Errorf("pooled=%v: the mux reader allocated %d bytes for a payload of 10", pooled, got)
		}
	}

	// A payload longer than one step arrives whole, through the growth path.
	payload := bytes.Repeat([]byte("mux frame payload "), 3*streamSlack/18)
	var wire bytes.Buffer
	if err := WriteMuxFrame(&wire, MuxFrameResponse, 9, payload); err != nil {
		t.Fatal(err)
	}
	for _, pooled := range []bool{false, true} {
		f, buf, err := readMuxFrame(bytes.NewReader(wire.Bytes()), limit, pooled)
		if err != nil || f.ID != 9 || !bytes.Equal(f.Payload, payload) || (buf != nil) != pooled {
			t.Errorf("pooled=%v: a %d-byte payload came back as %d bytes, err %v", pooled, len(payload), len(f.Payload), err)
		}
		buf.release()
	}
}

// sameRefusal fails unless one step of the split codec refused exactly as
// the reference did: the same sentinel, or the same bare I/O error before
// the message started.
func sameRefusal(t *testing.T, what, step string, got, ref, sentinel error) {
	t.Helper()
	if (got == nil) != (ref == nil) {
		t.Fatalf("%s: %s says %v, the reference decoder says %v", what, step, got, ref)
	}
	if errors.Is(ref, sentinel) != errors.Is(got, sentinel) || (!errors.Is(ref, sentinel) && got != ref) {
		t.Fatalf("%s: %s refused with %v, the reference decoder with %v", what, step, got, ref)
	}
}

// splitRefusal holds the three steps of the split codec to the reference
// decoder: framing reads no residue, so it never refuses one, and refuses
// only what the reference refuses; on a framed input the range check and the
// materialization each refuse exactly what the reference refuses.
func splitRefusal(t *testing.T, what string, framed, checked, decoded func() error, ref, sentinel error) bool {
	t.Helper()
	if err := framed(); err != nil {
		if strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: framing read a residue: %v", what, err)
		}
		sameRefusal(t, what, "framing", err, ref, sentinel)
		return false
	}
	sameRefusal(t, what, "framing and Check", checked(), ref, sentinel)
	sameRefusal(t, what, "framing and materialization", decoded(), ref, sentinel)
	return ref == nil
}

// requestCmdOff is where the command byte sits in an encoded request: after
// the magic and the version.
const requestCmdOff = 4 + 1

// siblings pairs each op command with the other scheme's of the same shape.
var siblings = map[uint8]uint8{
	CmdAdd: CmdCKKSAdd, CmdMul: CmdCKKSMul, CmdRotate: CmdCKKSRotate,
	CmdCKKSAdd: CmdAdd, CmdCKKSMul: CmdMul, CmdCKKSRotate: CmdRotate,
}

// FuzzFrameRequest: the halves of the split codec are together exactly the
// decoder they replaced, whichever consumes the frame. Framing a payload in
// memory and then range-checking it (the relay's path) accepts the inputs
// the reference ReadRequest accepts and refuses the rest with the same
// sentinel, and so does framing and then materializing it (the node's path);
// framing alone refuses no residue. On accept, materializing the frame gives
// the reference's decode, and the frame's bytes — what the routing tier
// forwards — are the consumed input, byte for byte what WriteRequest writes
// for that decode. Every input is framed under both codecs a side may speak:
// BFV and CKKS, and BFV only — where a CKKS command is a typed refusal.
func FuzzFrameRequest(f *testing.F) {
	params := fuzzParams()
	cparams, cct := fuzzCKKS()
	ct := fuzzCiphertext()
	for _, req := range []*Request{
		{Cmd: CmdPing, ID: 7, Tenant: "alice"},
		{Cmd: CmdInfo, ID: 8},
		{Cmd: CmdKeyExport, ID: 13, Tenant: "dave"},
		{Cmd: CmdKeyImport, ID: 15, Tenant: "erin", Blob: []byte("HEKB not really a key blob")},
		{Cmd: CmdKeyImport, ID: 14, Blob: []byte{0x01}},
		{Cmd: CmdAdd, ID: 9, Tenant: "bob", A: ct, B: ct},
		{Cmd: CmdMul, ID: 10, A: ct, B: ct},
		{Cmd: CmdRotate, ID: 11, G: 3, A: ct},
		{Cmd: CmdProgram, ID: 12, Tenant: "carol", ProgBytes: fuzzProgram(), Inputs: []*fv.Ciphertext{ct, ct}},
		{Cmd: CmdCKKSAdd, ID: 16, CA: cct, CB: cct},
		{Cmd: CmdCKKSMul, ID: 17, Tenant: "bob", CA: cct, CB: cct},
		{Cmd: CmdCKKSRotate, ID: 18, R: -1, CA: cct},
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, params, req); err != nil {
			f.Fatal(err)
		}
		addFrameSeeds(f, buf.Bytes(), func(b []byte) { f.Add(b) })
		// The same bytes under the other scheme's command of the same shape
		// (any other command becomes a CKKS add): a body that is not of the
		// layout the command byte names.
		other := bytes.Clone(buf.Bytes())
		other[requestCmdOff] = CmdCKKSAdd
		if s, ok := siblings[req.Cmd]; ok {
			other[requestCmdOff] = s
		}
		addFrameSeeds(f, other, func(b []byte) { f.Add(b) })
		if req.Cmd == CmdCKKSAdd {
			// A padding word the decoder used to ignore: accepted, but not the
			// encoding of what it decoded to.
			padded := bytes.Clone(buf.Bytes())
			padded[requestHeadLen+len(req.Tenant)+12] = 0x5A
			f.Add(padded)
		}
	}
	f.Add(maxClaimKeyImport(params, cparams))
	f.Add([]byte("HEA2\x03\x01"))
	f.Add([]byte("HEA"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ckksCmd := len(data) > requestCmdOff && bytes.HasPrefix(data, protocolMagicV2[:]) && isCKKSCmd(data[requestCmdOff])
		for name, cp := range map[string]*ckks.Params{"dual": cparams, "bfv-only": nil} {
			ref, refErr := refReadRequest(bytes.NewReader(data), params, cp)
			cd := codecFor(params, cp)
			var (
				fr  Frame
				got *Request
			)
			framed := func() error {
				err := fr.read(&cursor{buf: bytes.Clone(data), left: cd.maxRequest}, cd)
				if cp == nil && ckksCmd && !errors.Is(err, ErrMalformedRequest) {
					t.Fatalf("%s: a CKKS command framed as %v, want ErrMalformedRequest", name, err)
				}
				return err
			}
			decoded := func() (err error) {
				got, err = fr.Request()
				return err
			}
			if !splitRefusal(t, name, framed, fr.Check, decoded, refErr, ErrMalformedRequest) {
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: materialized request differs from the reference decode:\n got %+v\nwant %+v", name, got, ref)
			}
			if !bytes.HasPrefix(data, fr.b) {
				t.Fatalf("%s: frame bytes are not the consumed input", name)
			}
			var enc bytes.Buffer
			if err := WriteRequest(&enc, params, ref); err != nil {
				t.Fatalf("%s: accepted request does not re-encode: %v", name, err)
			}
			if !bytes.Equal(fr.b, enc.Bytes()) {
				t.Fatalf("%s: forwarded bytes differ from WriteRequest of the decode", name)
			}
		}
	})
}

// FuzzFrameReply is FuzzFrameRequest for the reply direction, under every
// reply kind: RawReply.read followed by RawReply.Check, and by
// RawReply.Reply, against the reference readReply, RawReply.Reply against
// its decode, and the relayed bytes — the raw reply encoded for the
// writer — against the consumed input and against the kind's own encoder.
// A reply that is its whole payload, as a session requires, is relayed under
// the checksum it arrived with, which must still be the CRC of the relayed
// bytes. Under the BFV-only codec a CKKS kind has no layout: whatever the
// bytes, it is a typed refusal.
func FuzzFrameReply(f *testing.F) {
	params := fuzzParams()
	cparams, cct := fuzzCKKS()
	kinds := append(replyKinds(fuzzCiphertext()),
		replyKind{"ckks op", CmdCKKSMul, &Response{CKKSResult: cct, ComputeNanos: 7}},
		replyKind{"ack", CmdKeyImport, Blob(`{"tenant":"erin","keys":1}`)})
	seeds := []Reply{
		&ServerError{Code: CodeUnavailable, Msg: "overloaded"},
		&ServerError{Code: CodeApp, Msg: "no such key"},
	}
	for _, k := range kinds {
		seeds = append(seeds, k.rep)
	}
	for _, rep := range seeds {
		var buf bytes.Buffer
		if err := writeReply(&buf, rep, params); err != nil {
			f.Fatal(err)
		}
		addFrameSeeds(f, buf.Bytes(), func(b []byte) { f.Add(b) })
		if resp, ok := rep.(*Response); ok && resp.CKKSResult != nil {
			padded := bytes.Clone(buf.Bytes()) // see FuzzFrameRequest
			padded[replyHeadLen+12+12] = 0x5A
			f.Add(padded)
		}
	}
	f.Add(maxClaimKeyExportReply(params, cparams))
	f.Add([]byte{0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for name, cp := range map[string]*ckks.Params{"dual": cparams, "bfv-only": nil} {
			cd := codecFor(params, cp)
			for _, k := range kinds {
				if cp == nil && isCKKSCmd(k.cmd) {
					if err := new(RawReply).read(&cursor{buf: data, left: math.MaxInt}, cd, k.cmd); !errors.Is(err, ErrMalformedRequest) {
						t.Fatalf("%s under %s: framed as %v, want ErrMalformedRequest", k.kind, name, err)
					}
					continue
				}
				ref, refErr := refReadReply(bytes.NewReader(data), params, cp, k.cmd)
				what := k.kind + " under " + name
				raw := RawReply{sum: muxChecksum(data)} // as the session reader verified it
				var got Reply
				framed := func() error {
					return raw.read(&cursor{buf: bytes.Clone(data), left: math.MaxInt}, cd, k.cmd)
				}
				decoded := func() (err error) {
					got, err = raw.Reply()
					return err
				}
				if !splitRefusal(t, what, framed, raw.Check, decoded, refErr, ErrMalformedResponse) {
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s: materialized reply differs from the reference decode:\n got %+v\nwant %+v", what, got, ref)
				}
				if se := raw.ServerError(); (se != nil) != (data[0] == statusErr) {
					t.Fatalf("%s: ServerError() = %v for status byte %d", what, se, data[0])
				}
				relayed, err := raw.encode(params)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.HasPrefix(data, relayed.b) {
					t.Fatalf("%s: relayed bytes are not the consumed input", what)
				}
				if len(relayed.b) == len(data) && replySum(&raw, relayed.b) != muxChecksum(relayed.b) {
					t.Fatalf("%s: relayed under a checksum that is not the CRC of the relayed bytes", what)
				}
				if _, again := raw.encode(params); again == nil {
					t.Fatalf("%s: a raw reply encoded twice", what)
				}
				// An info reply re-marshals its JSON; every other kind's own
				// encoder reproduces the relayed bytes.
				if k.cmd != CmdInfo || data[0] == statusErr {
					var enc bytes.Buffer
					if err := writeReply(&enc, ref, params); err != nil {
						t.Fatalf("%s: accepted reply does not re-encode: %v", what, err)
					}
					if !bytes.Equal(relayed.b, enc.Bytes()) {
						t.Fatalf("%s: relayed bytes differ from the encoding of the decode", what)
					}
				}
			}
		}
	})
}
