package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fv"
)

// replyKinds is one success reply per kind of the envelope, as a reader of
// reply bytes alone hands it back (the request ID is the mux frame's, so it
// reads none), with the command whose reply framing decodes it. Shared by
// the round-trip table and the response fuzz seeds.
type replyKind struct {
	kind string
	cmd  uint8
	rep  Reply
}

func replyKinds(ct *fv.Ciphertext) []replyKind {
	return []replyKind{
		{"op", CmdMul, &Response{Result: ct, ComputeNanos: 456, Worker: 1}},
		{"program", CmdProgram, &ProgramResponse{Outputs: []*fv.Ciphertext{ct, ct}, MakespanNanos: 9, SerialNanos: 12, KeyLoads: 1, Nodes: 3}},
		{"info", CmdInfo, &ServerInfo{Proto: ProtoV2, NodeID: "n0", Workers: 2, TenantAware: true, Tenants: []string{"alice"}}},
		{"blob", CmdKeyExport, Blob("opaque key blob bytes")},
	}
}

// TestReplyEnvelopeRoundTrip: all four reply kinds go through the one
// envelope writer and the one reader — the success half decodes back to what
// was written, and the error half is the same bytes whatever the kind and
// decodes to the *ServerError it carries.
func TestReplyEnvelopeRoundTrip(t *testing.T) {
	ts := newTestSystem(t)
	want := &ServerError{Code: CodeIntegrity, Msg: "fingerprint mismatch"}
	var errBytes bytes.Buffer
	if err := writeReply(&errBytes, want, ts.params); err != nil {
		t.Fatal(err)
	}

	for _, k := range replyKinds(ts.encrypt(t, 5)) {
		var buf bytes.Buffer
		if err := writeReply(&buf, k.rep, ts.params); err != nil {
			t.Fatalf("%s: encode: %v", k.kind, err)
		}
		got, err := readReply(&buf, codecFor(ts.params, nil), k.cmd)
		if err != nil {
			t.Fatalf("%s: decode: %v", k.kind, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: %d bytes left after the reply", k.kind, buf.Len())
		}
		if !reflect.DeepEqual(got, k.rep) {
			t.Fatalf("%s: success half drifted:\n got %+v\nwant %+v", k.kind, got, k.rep)
		}

		got, err = readReply(bytes.NewReader(errBytes.Bytes()), codecFor(ts.params, nil), k.cmd)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: error half decoded to %+v, %v", k.kind, got, err)
		}
	}

	// The op and program structs can carry a failure themselves; it goes out
	// as the same error half.
	for _, rep := range []Reply{
		&Response{Err: want.Msg, Code: want.Code},
		&ProgramResponse{Err: want.Msg, Code: want.Code},
	} {
		var buf bytes.Buffer
		if err := writeReply(&buf, rep, ts.params); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), errBytes.Bytes()) {
			t.Fatalf("%T with Err set encodes a different error half", rep)
		}
	}

	// The retired info-error layout (status, length, message — no code byte;
	// nothing ever wrote it) is refused, typed.
	old := []byte{statusErr}
	old = binary.LittleEndian.AppendUint32(old, 4)
	old = append(old, "boom"...)
	if _, err := readReply(bytes.NewReader(old), codecFor(ts.params, nil), CmdInfo); !errors.Is(err, ErrMalformedResponse) {
		t.Fatalf("retired info-error layout: err %v, want ErrMalformedResponse", err)
	}
}

// TestFrameSizeHints: the capacity a mux frame buffer is grown to before the
// codec writes into it covers the encoded request or reply, so the buffer
// never regrows under a ciphertext-sized body, and overshoots by less than a
// header's worth.
func TestFrameSizeHints(t *testing.T) {
	ts := newCKKSTestSystem(t)
	ct := ts.encrypt(t, 5)
	cct := ts.encryptVals(t, []float64{0.5, -0.25})
	check := func(what string, encoded, hint int) {
		t.Helper()
		if hint < encoded || hint > encoded+128 {
			t.Errorf("%s: size hint %d for %d encoded bytes", what, hint, encoded)
		}
	}
	for _, req := range []*Request{
		{Cmd: CmdPing},
		{Cmd: CmdMul, Tenant: "alice", A: ct, B: ct},
		{Cmd: CmdRotate, G: 3, A: ct},
		{Cmd: CmdCKKSMul, CA: cct, CB: cct},
		{Cmd: CmdCKKSRotate, R: 1, CA: cct},
		{Cmd: CmdProgram, ProgBytes: []byte("not decoded by the framing"), Inputs: []*fv.Ciphertext{ct, ct, ct}},
		{Cmd: CmdKeyImport, Tenant: "bob", Blob: bytes.Repeat([]byte{7}, 1000)},
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, ts.params, req); err != nil {
			t.Fatalf("%s: %v", cmdName(req.Cmd), err)
		}
		check(cmdName(req.Cmd)+" request", buf.Len(), req.encodedSize(ts.params))
	}
	for _, rep := range []Reply{
		&Response{Ver: ProtoV2, ID: 9, Result: ct, ComputeNanos: 456, Worker: 1},
		&Response{Ver: ProtoV2, ID: 9, CKKSResult: cct},
		&ProgramResponse{ID: 9, Outputs: []*fv.Ciphertext{ct, ct}, MakespanNanos: 9},
		Blob("opaque key blob bytes"),
		&ServerError{Code: CodeApp, Msg: "no evaluation key registered"},
	} {
		var buf bytes.Buffer
		if err := writeReply(&buf, rep, ts.params); err != nil {
			t.Fatalf("%T: %v", rep, err)
		}
		check(fmt.Sprintf("%T reply", rep), buf.Len(), replySize(rep, ts.params))
	}
}
