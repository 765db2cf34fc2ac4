package cluster

import (
	"context"
	"errors"
	"log"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/fv"
)

// Server exposes the existing wire protocol in front of the ring: clients
// speak to it exactly as they would to one heserver, and every request is
// routed to the backend owning its tenant. This is what cmd/herouter serves.
// The listener, accept/drain and the session framing are the embedded
// cloud.Frontend (as are Params, CKKSParams, Logger and ReadTimeout); this
// type is only the handler behind it. With CKKSParams set the CKKS commands
// are framed and routed like the BFV ones; a node that serves no CKKS cannot
// frame them and refuses them with a typed CodeApp error over its session.
type Server struct {
	*cloud.Frontend
	Router *Router
	// NodeID names the router in CmdInfo replies.
	NodeID string

	served atomic.Uint64
	pong   *cloud.Response // the answer to every ping: one zero ciphertext, only ever read
}

// NewServer prepares a protocol front-end over a router.
func NewServer(params *fv.Params, router *Router, logger *log.Logger) *Server {
	s := &Server{Router: router, pong: &cloud.Response{Result: fv.NewCiphertext(params, 2)}}
	s.Frontend = cloud.NewFrontend(params, s, logger)
	return s
}

// Served returns the number of operations routed successfully.
func (s *Server) Served() uint64 { return s.served.Load() }

// routed turns a router outcome into the reply: the backend's own reply
// bytes on success, the backend's typed error when it reported one, and a
// retryable "unavailable" for anything the routing tier itself ran into.
func (s *Server) routed(rep *cloud.RawReply, err error) cloud.Reply {
	if err == nil {
		s.served.Add(1)
		return rep
	}
	var se *cloud.ServerError
	if errors.As(err, &se) {
		return se
	}
	return &cloud.ServerError{Code: cloud.CodeUnavailable, Msg: err.Error()}
}

// Handle answers one request: info and ping locally, everything else
// through the router — as the frame it arrived in, its residues range-checked
// here, and the backend's reply bytes relayed back, checked in tryOn, neither
// decoded, each under the payload checksum its sender wrote.
func (s *Server) Handle(f *cloud.Frame) cloud.Reply {
	switch f.ReplyKind() {
	case cloud.ReplyInfo:
		return &cloud.ServerInfo{
			Proto:       cloud.ProtoVersion,
			NodeID:      s.NodeID,
			Workers:     s.Router.ring.Size(),
			TenantAware: true,
			CKKS:        s.CKKSParams != nil,
		}
	case cloud.ReplyBlob:
		// Key migration is node-direct: the router's migration engine dials
		// the data nodes itself, and proxying key blobs through the routing
		// tier would only widen the window where state lives in one place.
		// The refusal is deterministic: retrying elsewhere would not help.
		return &cloud.ServerError{Code: cloud.CodeApp, Msg: "cluster: key export/import is not served at the routing tier"}
	}
	if f.Cmd == cloud.CmdPing {
		// A router is alive when at least one backend is: answer locally so
		// health probes against the router reflect cluster availability.
		ctx, cancel := context.WithTimeout(context.Background(), s.Router.cfg.AttemptTimeout)
		defer cancel()
		if err := s.Router.Ping(ctx); err != nil {
			return &cloud.ServerError{Code: cloud.CodeUnavailable, Msg: err.Error()}
		}
		return s.pong
	}
	if err := f.Check(); err != nil {
		return &cloud.ServerError{Code: cloud.CodeApp, Msg: err.Error()}
	}
	return s.routed(s.Router.Forward(context.Background(), f))
}
