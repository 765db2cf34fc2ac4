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
// speak to it exactly as they would to one heserver — sequential connections
// and mux sessions alike — and every request is routed to the backend owning
// its tenant. This is what cmd/herouter serves. The listener, accept/drain
// and both framings are the embedded cloud.Frontend (as are Params,
// CKKSParams, Logger and ReadTimeout); this type is only the handler behind
// it. With CKKSParams set the CKKS commands are framed and routed like the
// BFV ones; a node that serves no CKKS refuses them (see conn.Exchange).
type Server struct {
	*cloud.Frontend
	Router *Router
	// NodeID names the router in CmdInfo replies.
	NodeID string

	served atomic.Uint64
}

// NewServer prepares a protocol front-end over a router.
func NewServer(params *fv.Params, router *Router, logger *log.Logger) *Server {
	s := &Server{Router: router}
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
// through the router — as the frame it arrived in. The front-end has already
// range-checked every ciphertext in it; the router sends those bytes on and
// relays the backend's reply bytes back, checked the same way, without
// decoding either.
func (s *Server) Handle(f *cloud.Frame) cloud.Reply {
	switch f.Cmd {
	case cloud.CmdInfo:
		return &cloud.ServerInfo{
			Proto:       cloud.ProtoVersion,
			NodeID:      s.NodeID,
			Workers:     s.Router.ring.Size(),
			TenantAware: true,
			CKKS:        s.CKKSParams != nil,
		}
	case cloud.CmdPing:
		// A router is alive when at least one backend is: answer locally so
		// health probes against the router reflect cluster availability.
		ctx, cancel := context.WithTimeout(context.Background(), s.Router.cfg.AttemptTimeout)
		defer cancel()
		if err := s.Router.Ping(ctx); err != nil {
			return &cloud.ServerError{Code: cloud.CodeUnavailable, Msg: err.Error()}
		}
		return &cloud.Response{Result: fv.NewCiphertext(s.Params, 2)}
	case cloud.CmdKeyExport, cloud.CmdKeyImport:
		// Key migration is node-direct: the router's migration engine dials
		// the data nodes itself, and proxying key blobs through the routing
		// tier would only widen the window where state lives in one place.
		// The refusal is deterministic: retrying elsewhere would not help.
		return &cloud.ServerError{Code: cloud.CodeApp, Msg: "cluster: key export/import is not served at the routing tier"}
	}
	return s.routed(s.Router.Forward(context.Background(), f))
}
