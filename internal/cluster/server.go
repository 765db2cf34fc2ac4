package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/fv"
)

// Server exposes the existing wire protocol in front of the ring: clients
// speak to it exactly as they would to one heserver, and every
// request is routed to the backend owning its tenant. This is what
// cmd/herouter serves. The accept/drain skeleton mirrors cloud.Server.
type Server struct {
	Params *fv.Params
	Router *Router
	Logger *log.Logger
	// NodeID names the router in CmdInfo replies.
	NodeID string
	// ReadTimeout overrides cloud.DefaultReadTimeout when positive.
	ReadTimeout time.Duration

	ln      net.Listener
	mu      sync.Mutex
	served  uint64
	closing bool
	conns   map[net.Conn]struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
}

// NewServer prepares a protocol front-end over a router.
func NewServer(params *fv.Params, router *Router, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	return &Server{
		Params: params,
		Router: router,
		Logger: logger,
		conns:  make(map[net.Conn]struct{}),
		quit:   make(chan struct{}),
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Listen binds the address and returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until Shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("cluster: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown stops accepting, unblocks idle readers, and waits for in-flight
// exchanges to flush (or ctx to expire).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	if !already {
		close(s.quit)
		for c := range s.conns {
			c.SetReadDeadline(time.Now())
		}
	}
	ln := s.ln
	s.mu.Unlock()
	if ln != nil && !already {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Served returns the number of operations routed successfully.
func (s *Server) Served() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	timeout := s.ReadTimeout
	if timeout <= 0 {
		timeout = cloud.DefaultReadTimeout
	}
	for {
		conn.SetReadDeadline(time.Now().Add(timeout))
		select {
		case <-s.quit:
			return
		default:
		}
		req, err := cloud.ReadRequest(conn, s.Params)
		if err != nil {
			return
		}
		if err := s.serveOne(conn, req); err != nil {
			s.Logger.Printf("cluster: write response: %v", err)
			return
		}
	}
}

// serveOne answers a single request, echoing the client's request ID
// whatever the backend exchange did to the request struct.
func (s *Server) serveOne(conn net.Conn, req *cloud.Request) error {
	clientID := req.ID
	switch req.Cmd {
	case cloud.CmdInfo:
		info := &cloud.ServerInfo{
			Proto:       cloud.ProtoV2,
			NodeID:      s.NodeID,
			Workers:     s.Router.ring.Size(),
			TenantAware: true,
		}
		return cloud.WriteInfoResponse(conn, clientID, info)
	case cloud.CmdPing:
		// A router is alive when at least one backend is: answer locally so
		// health probes against the router reflect cluster availability.
		ctx, cancel := context.WithTimeout(context.Background(), s.Router.cfg.AttemptTimeout)
		err := s.Router.Ping(ctx)
		cancel()
		resp := &cloud.Response{Ver: cloud.ProtoV2, ID: clientID}
		if err != nil {
			resp.Err = err.Error()
			resp.Code = cloud.CodeUnavailable
		} else {
			resp.Result = fv.NewCiphertext(s.Params, 2)
		}
		return cloud.WriteResponse(conn, s.Params, resp)
	case cloud.CmdAdmin:
		return s.serveAdmin(conn, clientID, req)
	case cloud.CmdKeyExport, cloud.CmdKeyImport:
		// Key migration is node-direct: the router's migration engine dials
		// the data nodes itself, and proxying key blobs through the routing
		// tier would only widen the window where state lives in one place.
		return cloud.WriteBlobError(conn, clientID, cloud.CodeApp,
			"cluster: key export/import is not served at the routing tier")
	case cloud.CmdProgram:
		resp, err := s.Router.DoProgram(context.Background(), req)
		if err != nil {
			out := &cloud.ProgramResponse{ID: clientID, Err: err.Error(), Code: cloud.CodeUnavailable}
			var se *cloud.ServerError
			if errors.As(err, &se) {
				out.Code = se.Code
				out.Err = se.Msg
			}
			return cloud.WriteProgramResponse(conn, s.Params, out)
		}
		s.mu.Lock()
		s.served++
		s.mu.Unlock()
		resp.ID = clientID
		return cloud.WriteProgramResponse(conn, s.Params, resp)
	}
	resp, err := s.Router.Do(context.Background(), req)
	if err != nil {
		out := &cloud.Response{Ver: cloud.ProtoV2, ID: clientID, Err: err.Error(), Code: cloud.CodeUnavailable}
		var se *cloud.ServerError
		if errors.As(err, &se) {
			out.Code = se.Code
			out.Err = se.Msg
		}
		return cloud.WriteResponse(conn, s.Params, out)
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	resp.ID = clientID
	return cloud.WriteResponse(conn, s.Params, resp)
}

// serveAdmin applies one membership change (join/leave/drain) to the router
// and acknowledges with the resulting ring and migration totals.
func (s *Server) serveAdmin(conn net.Conn, id uint64, req *cloud.Request) error {
	var areq cloud.AdminRequest
	if err := json.Unmarshal(req.Blob, &areq); err != nil {
		return cloud.WriteBlobError(conn, id, cloud.CodeApp, "cluster: bad admin request: "+err.Error())
	}
	// Membership changes drain and transfer key state; give them the
	// router's full migration budget, not the connection read timeout.
	ctx := context.Background()
	var (
		rep *MigrationReport
		err error
	)
	switch areq.Op {
	case cloud.AdminJoin:
		rep, err = s.Router.Join(ctx, Backend{ID: areq.Node, Addr: areq.Addr})
	case cloud.AdminLeave:
		rep, err = s.Router.Leave(ctx, areq.Node)
	case cloud.AdminDrain:
		rep, err = s.Router.Drain(ctx, areq.Node)
	default:
		err = fmt.Errorf("cluster: unknown admin op %q", areq.Op)
	}
	if err != nil {
		return cloud.WriteBlobError(conn, id, cloud.CodeApp, err.Error())
	}
	reply := &cloud.AdminReply{
		Node:            areq.Node,
		Members:         s.Router.ring.Members(),
		MigratedTenants: rep.Tenants,
		MigratedKeys:    rep.Keys,
	}
	body, err := json.Marshal(reply)
	if err != nil {
		return cloud.WriteBlobError(conn, id, cloud.CodeApp, err.Error())
	}
	s.Logger.Printf("cluster: admin %s %s: members=%v tenants=%d keys=%d",
		areq.Op, areq.Node, reply.Members, rep.Tenants, rep.Keys)
	return cloud.WriteBlobResponse(conn, id, body)
}
