package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/fv"
	"repro/internal/program"
)

// The mux session layout as the wire carries it, spelled out here so the
// capture below reads the bytes without the code under test: a 7-byte hello,
// then frames of a 21-byte header — type (1), request ID (8), payload length
// (4), payload checksum (4), header checksum (4) — and the payload.
const (
	wireHelloLen  = 7
	wireHeaderLen = 21
)

var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// wireTap is a recording relay on one TCP leg: it forwards every connection
// made to it to target and keeps a copy of the bytes each way, appended
// before they are forwarded — so whatever the far end has received is
// already on the record.
type wireTap struct {
	addr string
	mu   sync.Mutex
	legs []*tapLeg
}

type tapLeg struct{ up, down bytes.Buffer } // toward target, back from it

type tapWriter struct {
	tap *wireTap
	rec *bytes.Buffer
	w   io.Writer
}

func (tw tapWriter) Write(b []byte) (int, error) {
	tw.tap.mu.Lock()
	tw.rec.Write(b)
	tw.tap.mu.Unlock()
	return tw.w.Write(b)
}

func startWireTap(t *testing.T, target string) *wireTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tp := &wireTap{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			leg := new(tapLeg)
			tp.mu.Lock()
			tp.legs = append(tp.legs, leg)
			tp.mu.Unlock()
			go func() {
				defer c.Close()
				far, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer far.Close()
				go func() {
					io.Copy(tapWriter{tp, &leg.down, c}, far)
					c.Close()
				}()
				io.Copy(tapWriter{tp, &leg.up, far}, c)
			}()
		}
	}()
	return tp
}

// wireFrame is one mux frame as it crossed a leg.
type wireFrame struct{ hdr, payload []byte }

// frames returns every whole frame the tap's sessions carried toward the
// target (up) or back, session by session, in order.
func (tp *wireTap) frames(up bool) []wireFrame {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var out []wireFrame
	for _, leg := range tp.legs {
		b := leg.down.Bytes()
		if up {
			b = leg.up.Bytes()
		}
		if len(b) < wireHelloLen {
			continue
		}
		b = bytes.Clone(b[wireHelloLen:])
		for len(b) >= wireHeaderLen {
			n := wireHeaderLen + int(binary.LittleEndian.Uint32(b[9:13]))
			if len(b) < n {
				break
			}
			out = append(out, wireFrame{hdr: b[:wireHeaderLen], payload: b[wireHeaderLen:n]})
			b = b[n:]
		}
	}
	return out
}

// since returns what frames(up) holds beyond its first n entries.
func (tp *wireTap) since(n int, up bool) []wireFrame { return tp.frames(up)[n:] }

// sameRelayed fails unless next carries frame on to the next hop untouched:
// the same type, length, payload-checksum field and payload bytes — the field
// the CRC-32C of the payload, the header checksum that of the header. Only
// the request ID and the header checksum may differ between hops.
func sameRelayed(t *testing.T, what string, frame, next wireFrame) {
	t.Helper()
	for _, f := range []wireFrame{frame, next} {
		if got := crc32.Checksum(f.payload, wireCastagnoli); got != binary.LittleEndian.Uint32(f.hdr[13:17]) {
			t.Fatalf("%s: payload checksum field %#x is not the CRC-32C %#x of the payload", what, binary.LittleEndian.Uint32(f.hdr[13:17]), got)
		}
		if got := crc32.Checksum(f.hdr[:17], wireCastagnoli); got != binary.LittleEndian.Uint32(f.hdr[17:21]) {
			t.Fatalf("%s: header checksum field is not the CRC-32C of the header", what)
		}
	}
	if !bytes.Equal(frame.payload, next.payload) {
		t.Fatalf("%s: the payload changed across the hop", what)
	}
	if frame.hdr[0] != next.hdr[0] || !bytes.Equal(frame.hdr[9:17], next.hdr[9:17]) {
		t.Fatalf("%s: type, length or payload checksum field changed across the hop:\n %x\n %x", what, frame.hdr, next.hdr)
	}
}

// TestRouterRelaysPayloadAndChecksum records both legs of a routed exchange —
// client to router, router to each node — and holds the router to what it
// claims to do: a request's payload and payload-checksum field reach the node
// exactly as the client sent them, a reply's reach the client exactly as the
// node sent them, and across a failover (the scripted primary refuses,
// retryably) every attempt carries the same payload and checksum field. Only
// the header's request ID and its checksum differ between hops: the router
// makes no pass of its own over a payload it forwards. A routed Add and a
// routed program.
func TestRouterRelaysPayloadAndChecksum(t *testing.T) {
	tc := startCluster(t, 1, nil)
	_, scripted := startScriptedNode(t, tc.params, func(uint8) cloud.Reply {
		return &cloud.ServerError{Code: cloud.CodeUnavailable, Msg: "scripted: overloaded"}
	})
	nodeTap := startWireTap(t, tc.backends[0].addr)
	refusingTap := startWireTap(t, scripted.Addr)
	router, err := NewRouter(Config{
		Params:   tc.params,
		Backends: []Backend{{ID: tc.backends[0].id, Addr: nodeTap.addr}, {ID: scripted.ID, Addr: refusingTap.addr}},
		Replicas: 2,
		// No probes: every frame on the node legs is a forwarded request.
		Health: HealthConfig{Interval: time.Hour, FailThreshold: 100, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	srv := NewServer(tc.params, router, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	clientTap := startWireTap(t, addr)

	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	b.Output(b.Add(b.Mul(x, y), x))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	ops := []struct {
		name string
		run  func(c *cloud.Client) error
	}{
		{"add", func(c *cloud.Client) error {
			sum, _, err := c.AddCtx(ctx, tc.encrypt(t, 20), tc.encrypt(t, 22))
			if err == nil && tc.decrypt(sum) != 42 {
				t.Fatalf("routed add decrypts to %d", tc.decrypt(sum))
			}
			return err
		}},
		{"program", func(c *cloud.Client) error {
			resp, err := c.RunProgram(ctx, prog, []*fv.Ciphertext{tc.encrypt(t, 3), tc.encrypt(t, 5)})
			if err == nil && tc.decrypt(resp.Outputs[0]) != 18 {
				t.Fatalf("routed program decrypts to %d", tc.decrypt(resp.Outputs[0]))
			}
			return err
		}},
	}
	for _, primary := range []string{tc.backends[0].id, scripted.ID} {
		tenant := tenantWithPrimary(t, router, primary)
		tc.backends[0].eng.SetRelinKey(tenant, tc.rk)
		client, err := cloud.DialTenant(clientTap.addr, tc.params, tenant)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		failover := primary == scripted.ID
		for _, op := range ops {
			what := op.name
			if failover {
				what += " after a refusal"
			}
			taps := []*wireTap{clientTap, nodeTap, refusingTap}
			var up, down [3]int
			for i, tp := range taps {
				up[i], down[i] = len(tp.frames(true)), len(tp.frames(false))
			}
			if err := op.run(client); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			req, rep := clientTap.since(up[0], true), clientTap.since(down[0], false)
			nodeReq, nodeRep := nodeTap.since(up[1], true), nodeTap.since(down[1], false)
			refused := refusingTap.since(up[2], true)
			attempts := 1
			if failover {
				attempts = 2
			}
			if len(req) != 1 || len(rep) != 1 || len(nodeReq) != 1 || len(nodeRep) != 1 || len(refused) != attempts-1 {
				t.Fatalf("%s: frames client %d/%d, node %d/%d, refusing node %d up, want 1/1, 1/1, %d",
					what, len(req), len(rep), len(nodeReq), len(nodeRep), len(refused), attempts-1)
			}
			sameRelayed(t, what+": request to the node", req[0], nodeReq[0])
			for _, f := range refused {
				sameRelayed(t, what+": request to the refusing node", req[0], f)
			}
			sameRelayed(t, what+": reply to the client", nodeRep[0], rep[0])
		}
	}
}
