package transport

import "fmt"

// RegisteredMemPerConn is the registered-memory footprint modeled per RDMA
// connection (paper §IV-D: "Memory registration of a few kilobytes is
// needed for RDMA-based transport ... Aggregation nodes require a similar
// amount of registered memory per connection").
const RegisteredMemPerConn = 4 << 10

// RDMAFactory simulates the rdma (Infiniband/iWARP) and ugni (Cray Gemini)
// transports over TCP. The wire behaviour matches sock, but the serving
// side runs with one-sided semantics: data pulls are charged to the NIC
// account instead of host CPU, reproducing the property that RDMA reads do
// not consume sampler-host cycles.
type RDMAFactory struct {
	// Kind is "rdma" or "ugni".
	Kind string
}

// Name returns the transport kind.
func (f RDMAFactory) Name() string {
	if f.Kind == "" {
		return "rdma"
	}
	return f.Kind
}

// MaxFanIn reports ~9,000:1 for RDMA over IB and >15,000:1 for Gemini.
func (f RDMAFactory) MaxFanIn() int {
	if f.Kind == "ugni" {
		return 15000
	}
	return 9000
}

// Listen serves srv on a TCP address with one-sided update semantics.
func (f RDMAFactory) Listen(addr string, srv *Server) (Listener, error) {
	if k := f.Name(); k != "rdma" && k != "ugni" {
		return nil, fmt.Errorf("transport: unknown RDMA kind %q", k)
	}
	srv.OneSided = true
	return listenTCP(addr, srv, nil, defaultSockCfg)
}

// ListenPeer serves srv with one-sided semantics and reports dialing peers
// that announce themselves via DialNamed.
func (f RDMAFactory) ListenPeer(addr string, srv *Server, onPeer func(name string, conn Conn)) (Listener, error) {
	srv.OneSided = true
	return listenTCP(addr, srv, onPeer, defaultSockCfg)
}

// Dial connects to a peer serving the rdma/ugni transport.
func (f RDMAFactory) Dial(addr string) (Conn, error) {
	return dialTCP(addr, "", nil, defaultSockCfg)
}

// DialNamed connects, announces name, and serves srv over the same
// connection for reversed-direction pulls.
func (f RDMAFactory) DialNamed(addr, name string, srv *Server) (Conn, error) {
	if srv != nil {
		srv.OneSided = true
	}
	return dialTCP(addr, name, srv, defaultSockCfg)
}
