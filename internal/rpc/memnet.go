package rpc

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
)

// MemNet is an in-memory network: named listeners whose connections are
// net.Pipe pairs. A server listening on it is reached through a Client
// whose Options.Transport is the network's Transport, over the same wire
// as TCP but without a port. It fails the way loopback TCP does where the
// client looks: a dial to a name nobody listens on is a *net.OpError with
// Op "dial", so the call was never sent, and a closed listener's name is
// free again at once.
type MemNet struct {
	mu  sync.Mutex
	ls  map[string]*MemListener
	seq int
}

// NewMemNet returns an empty in-memory network.
func NewMemNet() *MemNet { return &MemNet{ls: make(map[string]*MemListener)} }

// Listen binds name, or a fresh name when name is empty. A name already
// bound is refused.
func (n *MemNet) Listen(name string) (*MemListener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if name == "" {
		n.seq++
		name = "pipe:" + strconv.Itoa(n.seq)
	}
	if n.ls[name] != nil {
		return nil, &net.OpError{Op: "listen", Net: "pipe", Err: errors.New(name + ": address already in use")}
	}
	l := &MemListener{n: n, name: name, conns: make(chan net.Conn), done: make(chan struct{})}
	n.ls[name] = l
	return l, nil
}

// DialContext connects to the listener bound to addr: the http.Transport
// dial hook.
func (n *MemNet) DialContext(ctx context.Context, _, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.ls[addr]
	n.mu.Unlock()
	if l != nil {
		client, server := net.Pipe()
		select {
		case l.conns <- server:
			return client, nil
		case <-l.done:
		case <-ctx.Done():
		}
		client.Close()
		server.Close()
	}
	return nil, &net.OpError{Op: "dial", Net: "pipe", Err: errors.New(addr + ": connection refused")}
}

// Transport returns a pooled HTTP transport that dials this network.
func (n *MemNet) Transport() *http.Transport {
	return &http.Transport{DialContext: n.DialContext, MaxIdleConnsPerHost: 16}
}

// MemListener is one bound name on a MemNet. Closing it unbinds the name;
// the connections it accepted are their server's to close.
type MemListener struct {
	n     *MemNet
	name  string
	conns chan net.Conn
	done  chan struct{}
}

func (l *MemListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *MemListener) Close() error {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	if l.n.ls[l.name] == l {
		delete(l.n.ls, l.name)
		close(l.done)
	}
	return nil
}

// Addr is the bound name, on the network net.Pipe's ends report.
func (l *MemListener) Addr() net.Addr { return &net.UnixAddr{Name: l.name, Net: "pipe"} }

// Rebind binds the listener's name again, once it is closed.
func (l *MemListener) Rebind() (*MemListener, error) { return l.n.Listen(l.name) }
