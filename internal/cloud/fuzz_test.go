package cloud

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/program"
	"repro/internal/sampler"
)

// fuzzParams builds the shared parameter set once per process: parameter
// generation is too slow to repeat per fuzz iteration, and the decoders are
// pure functions of (bytes, params).
var fuzzParams = sync.OnceValue(func() *fv.Params {
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		panic(err)
	}
	return params
})

// isCKKSCmd reports whether cmd carries CKKS ciphertexts.
func isCKKSCmd(cmd uint8) bool { return commands[cmd] != nil && commands[cmd].op.CKKS() }

// codecFor is the codec of a side speaking params and, when non-nil, cparams.
func codecFor(params *fv.Params, cparams *ckks.Params) *codec {
	cd := newCodec(params, cparams)
	return &cd
}

// fuzzCiphertext builds one well-formed ciphertext for seed frames.
var fuzzCiphertext = sync.OnceValue(func() *fv.Ciphertext {
	params := fuzzParams()
	prng := sampler.NewPRNG(41)
	kg := fv.NewKeyGenerator(params, prng)
	_, pk, _ := kg.GenKeys()
	pt := fv.NewPlaintext(params)
	pt.Coeffs[0] = 7
	return fv.NewEncryptor(params, pk, prng).Encrypt(pt)
})

// fuzzProgram builds one well-formed serialized program for seed frames.
var fuzzProgram = sync.OnceValue(func() []byte {
	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	b.Output(b.Add(b.Mul(x, y), x))
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	data, err := p.EncodeBytes()
	if err != nil {
		panic(err)
	}
	return data
})

// checkDecodeErr fails the fuzz run when a decoder rejects input with an
// untyped error: every structural rejection must wrap the sentinel so the
// server/client can tell garbage from transport loss. Pure I/O errors (EOF
// before the frame started) are exempt.
func checkDecodeErr(t *testing.T, err, sentinel error) {
	t.Helper()
	if err == nil || errors.Is(err, sentinel) {
		return
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return
	}
	t.Fatalf("decode error is not typed: %v", err)
}

// FuzzDecodeRequest feeds arbitrary bytes to ReadRequest. The decoder must
// never panic, never read more than a request's bound, reject garbage with a
// typed error, and anything it accepts must survive a re-encode/re-decode
// round trip.
func FuzzDecodeRequest(f *testing.F) {
	params := fuzzParams()
	ct := fuzzCiphertext()
	seeds := []*Request{
		{Cmd: CmdPing, Ver: ProtoV2, ID: 7, Tenant: "alice"},
		{Cmd: CmdInfo, Ver: ProtoV2, ID: 8},
		{Cmd: CmdKeyExport, Ver: ProtoV2, ID: 13, Tenant: "dave"},
		{Cmd: CmdKeyImport, Ver: ProtoV2, ID: 14, Blob: []byte{0x01}},
		{Cmd: CmdAdd, Ver: ProtoV2, ID: 9, Tenant: "bob", A: ct, B: ct},
		{Cmd: CmdMul, Ver: ProtoV2, ID: 10, A: ct, B: ct},
		{Cmd: CmdRotate, Ver: ProtoV2, ID: 11, G: 3, A: ct},
		{Cmd: CmdProgram, Ver: ProtoV2, ID: 12, Tenant: "carol",
			ProgBytes: fuzzProgram(), Inputs: []*fv.Ciphertext{ct, ct}},
	}
	for _, req := range seeds {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, params, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Truncations and single-byte corruptions of valid frames reach the
		// deep decode paths far faster than random bytes.
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := bytes.Clone(buf.Bytes())
		flipped[buf.Len()/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte("HEA2\x03\x01"))
	f.Add([]byte("HEAM\x03\x20")) // a mux hello is not a request
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data), params)
		if err != nil {
			checkDecodeErr(t, err, ErrMalformedRequest)
			return
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, params, req); err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		if _, err := ReadRequest(&buf, params); err != nil {
			t.Fatalf("re-encoded request does not re-decode: %v", err)
		}
	})
}

// FuzzDecodeMuxFrame feeds arbitrary bytes to the mux frame decoder. It must
// never panic, never allocate past the payload bound, classify every
// rejection as connection-fatal (ErrMalformedMuxFrame) or per-request
// (ErrMuxPayloadChecksum, which must carry the frame's ID), and anything it
// accepts must survive a re-encode/re-decode round trip.
func FuzzDecodeMuxFrame(f *testing.F) {
	// The bound the serving paths enforce, so the seed claiming all of it
	// gets past the length check and into the payload reader.
	maxPayload := codecFor(fuzzParams(), nil).maxMuxPayload
	f.Add(maxClaimMuxFrame(maxPayload))
	seed := func(typ uint8, id uint64, payload []byte) {
		var buf bytes.Buffer
		if err := WriteMuxFrame(&buf, typ, id, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		// One flip in the header (fatal) and one in the payload (per-request).
		flipped := bytes.Clone(buf.Bytes())
		flipped[muxHeaderLen/2] ^= 0x40
		f.Add(flipped)
		flipped = bytes.Clone(buf.Bytes())
		flipped[muxHeaderLen+len(payload)/2] ^= 0x40
		f.Add(flipped)
	}
	seed(MuxFrameRequest, 1, []byte("x"))
	seed(MuxFrameResponse, 1<<40, bytes.Repeat([]byte{0xA5}, 257))
	var hello bytes.Buffer
	if err := WriteMuxHello(&hello, DefaultMuxWindow); err != nil {
		f.Fatal(err)
	}
	f.Add(hello.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := DecodeMuxFrame(bytes.NewReader(data), maxPayload)
		if errors.Is(err, ErrMuxPayloadChecksum) {
			if frame == nil {
				t.Fatal("payload checksum error lost its frame")
			}
			return
		}
		if err != nil {
			checkDecodeErr(t, err, ErrMalformedMuxFrame)
			return
		}
		var buf bytes.Buffer
		if err := WriteMuxFrame(&buf, frame.Type, frame.ID, frame.Payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		got, err := DecodeMuxFrame(&buf, maxPayload)
		if err != nil {
			t.Fatalf("re-encoded frame does not re-decode: %v", err)
		}
		if got.Type != frame.Type || got.ID != frame.ID || !bytes.Equal(got.Payload, frame.Payload) {
			t.Fatal("mux frame round trip drifted")
		}
	})
}

// FuzzDecodeResponse feeds arbitrary bytes to the reply reader under each of
// the four reply kinds. Same contract as the request side; additionally, an
// unknown status byte must never be parsed as a success frame.
func FuzzDecodeResponse(f *testing.F) {
	params := fuzzParams()
	kinds := replyKinds(fuzzCiphertext())
	seeds := []Reply{
		&ServerError{Code: CodeUnavailable, Msg: "overloaded"},
		&ServerError{Code: CodeIntegrity, Msg: "fingerprint mismatch"},
		&ServerError{Code: CodeQuota, Msg: "tenant over quota"},
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
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := bytes.Clone(buf.Bytes())
		flipped[buf.Len()/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			rep, err := readReply(bytes.NewReader(data), codecFor(params, nil), k.cmd)
			if err != nil {
				checkDecodeErr(t, err, ErrMalformedResponse)
				continue
			}
			if data[0] != statusOK && data[0] != statusErr {
				t.Fatalf("%s: status byte %d accepted", k.kind, data[0])
			}
			var buf bytes.Buffer
			if err := writeReply(&buf, rep, params); err != nil {
				t.Fatalf("%s: accepted reply does not re-encode: %v", k.kind, err)
			}
			if _, err := readReply(&buf, codecFor(params, nil), k.cmd); err != nil {
				t.Fatalf("%s: re-encoded reply does not re-decode: %v", k.kind, err)
			}
		}
	})
}
