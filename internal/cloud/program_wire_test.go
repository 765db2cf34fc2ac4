package cloud

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/fv"
	"repro/internal/program"
)

// buildTestProgram compiles (a·b) + a — one mul wavefront, one add.
func buildTestProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	b.Output(b.Add(b.Mul(x, y), x))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgramRequestRoundTrip(t *testing.T) {
	ts := newTestSystem(t)
	p := buildTestProgram(t)
	data, err := p.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{
		Cmd: CmdProgram, Ver: ProtoV2, ID: 42, Tenant: "acme",
		ProgBytes: data,
		Inputs:    []*fv.Ciphertext{ts.encrypt(t, 3), ts.encrypt(t, 5)},
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, ts.params, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != CmdProgram || got.Tenant != "acme" {
		t.Fatalf("header fields changed: %+v", got)
	}
	if !bytes.Equal(got.ProgBytes, data) {
		t.Fatal("program bytes changed in transit")
	}
	if len(got.Inputs) != 2 {
		t.Fatalf("inputs = %d, want 2", len(got.Inputs))
	}
	// The shipped bytes must decode to a program with the same checksum.
	q, err := program.DecodeBytes(got.ProgBytes, ProgramLimits())
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := p.Checksum()
	s2, _ := q.Checksum()
	if s1 != s2 {
		t.Fatal("checksum changed in transit")
	}
}

func TestProgramResponseRoundTrip(t *testing.T) {
	ts := newTestSystem(t)
	resp := &ProgramResponse{
		Outputs:       []*fv.Ciphertext{ts.encrypt(t, 8)},
		MakespanNanos: 1234,
		SerialNanos:   5678,
		KeyLoads:      1,
		Nodes:         2,
	}
	var buf bytes.Buffer
	if err := WriteProgramResponse(&buf, ts.params, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProgramResponse(&buf, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	if got.MakespanNanos != 1234 || got.SerialNanos != 5678 ||
		got.KeyLoads != 1 || got.Nodes != 2 || len(got.Outputs) != 1 {
		t.Fatalf("round trip changed fields: %+v", got)
	}
	if ts.decrypt(got.Outputs[0]) != 8 {
		t.Fatal("output ciphertext corrupted in transit")
	}

	// Error path.
	var ebuf bytes.Buffer
	if err := WriteProgramResponse(&ebuf, ts.params, &ProgramResponse{
		Err: "no such tenant", Code: CodeApp,
	}); err != nil {
		t.Fatal(err)
	}
	eresp, err := ReadProgramResponse(&ebuf, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	if eresp.Err != "no such tenant" || eresp.Code != CodeApp {
		t.Fatalf("error round trip changed fields: %+v", eresp)
	}

	// Truncations must error with the typed sentinel, never succeed.
	full := buf.Len()
	var whole bytes.Buffer
	WriteProgramResponse(&whole, ts.params, resp)
	for _, cut := range []int{1, 10, full / 2} {
		if _, err := ReadProgramResponse(bytes.NewReader(whole.Bytes()[:cut]), ts.params); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

// TestServerProgramEndToEnd: a client submits one compiled program over TCP
// and gets the circuit's outputs in one round trip; a malformed program gets
// a typed error response on a connection that stays usable.
func TestServerProgramEndToEnd(t *testing.T) {
	ts := newTestSystem(t)
	_, addr := startServer(t, ts)

	cl, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p := buildTestProgram(t)
	inputs := []*fv.Ciphertext{ts.encrypt(t, 3), ts.encrypt(t, 5)}
	resp, err := cl.RunProgram(context.Background(), p, inputs)
	if err != nil {
		t.Fatalf("RunProgram: %v", err)
	}
	// (3·5 + 3) mod 257 = 18.
	if got := ts.decrypt(resp.Outputs[0]); got != 18 {
		t.Fatalf("program output decrypts to %d, want 18", got)
	}
	if resp.Nodes != 2 || resp.KeyLoads != 1 {
		t.Fatalf("accounting: nodes %d key loads %d, want 2 and 1", resp.Nodes, resp.KeyLoads)
	}
	if resp.MakespanNanos == 0 || resp.SerialNanos < resp.MakespanNanos {
		t.Fatalf("makespan %d / serial %d nanos implausible", resp.MakespanNanos, resp.SerialNanos)
	}

	// Garbage program bytes: typed server error, connection survives.
	bad := make([]byte, 64)
	copy(bad, "HEPG")
	_, err = cl.DoProgram(context.Background(), &Request{ProgBytes: bad, Inputs: inputs})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeApp {
		t.Fatalf("malformed program: err = %v, want *ServerError with CodeApp", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after program error: %v", err)
	}

	// A program for a tenant with no relin key: deterministic app error.
	_, err = cl.DoProgram(context.Background(), &Request{
		Tenant: "ghost", ProgBytes: mustEncode(t, p), Inputs: inputs,
	})
	if !errors.As(err, &se) || se.Code != CodeApp || se.Retryable() {
		t.Fatalf("missing key: err = %v, want non-retryable *ServerError", err)
	}
}

func mustEncode(t *testing.T, p *program.Program) []byte {
	t.Helper()
	data, err := p.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerProgramNoiseRefusal: the server bounds every program from fresh
// inputs on its own noise model (no wire command carries a budget), so a
// Mult chain one Mult past what the parameter set carries is a CodeApp
// refusal on a connection that keeps serving, counted as a noise rejection
// and not as a program.
func TestServerProgramNoiseRefusal(t *testing.T) {
	ts := newTestSystem(t)
	_, addr := startServer(t, ts)
	cl, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	chain := func(depth int) *program.Program {
		b := program.NewBuilder()
		x, y := b.Input(), b.Input()
		acc := b.Mul(x, y)
		for i := 1; i < depth; i++ {
			acc = b.Mul(acc, y)
		}
		b.Output(acc)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The deepest chain the engine's one-bit floor admits, plus one Mult.
	m := fv.NewNoiseModel(ts.params)
	depth := 1
	for chain(depth+1).PredictBudget(m, m.Fresh()) >= 1 {
		depth++
	}
	inputs := []*fv.Ciphertext{ts.encrypt(t, 3), ts.encrypt(t, 5)}
	_, err = cl.RunProgram(context.Background(), chain(depth+1), inputs)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeApp {
		t.Fatalf("chain of %d Mults: err = %v, want *ServerError with CodeApp", depth+1, err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after the noise refusal: %v", err)
	}
	if s := ts.eng.Stats(); s.NoiseRejected != 1 || s.Programs != 0 {
		t.Fatalf("NoiseRejected = %d, Programs = %d; want 1 and 0", s.NoiseRejected, s.Programs)
	}
}
