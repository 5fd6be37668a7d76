package telescope

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/tcpasm"
)

// LiveConfig tunes a live telescope instance.
type LiveConfig struct {
	// Addr is the IP to bind (loopback in local runs; a real DSCOPE
	// instance binds its public address).
	Addr string
	// Ports to listen on. Port 0 entries pick ephemeral ports (useful for
	// tests). A real instance accepts all ports via a redirect; a bounded
	// port set is the portable equivalent.
	Ports []int
	// BannerWindow is how long to wait for client data after accept before
	// closing (DSCOPE holds the connection without responding). Zero means
	// 5 seconds.
	BannerWindow time.Duration
}

// maxBanner caps the bytes captured per connection.
const maxBanner = 64 << 10

func (c LiveConfig) withDefaults() LiveConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1"
	}
	if len(c.Ports) == 0 {
		c.Ports = []int{0}
	}
	if c.BannerWindow == 0 {
		c.BannerWindow = 5 * time.Second
	}
	return c
}

// Live is a running live-mode telescope instance.
type Live struct {
	cfg       LiveConfig
	listeners []net.Listener
	sessions  chan tcpasm.Session
	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// NewLive binds the configured listeners and begins accepting. Captured
// sessions are delivered on Sessions(); call Close to stop.
func NewLive(cfg LiveConfig) (*Live, error) {
	cfg = cfg.withDefaults()
	l := &Live{
		cfg:      cfg,
		sessions: make(chan tcpasm.Session, 256),
		done:     make(chan struct{}),
	}
	for _, port := range cfg.Ports {
		ln, err := net.Listen("tcp", fmt.Sprintf("%s:%d", cfg.Addr, port))
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("telescope: listen %s:%d: %w", cfg.Addr, port, err)
		}
		l.listeners = append(l.listeners, ln)
		l.wg.Add(1)
		go l.acceptLoop(ln)
	}
	return l, nil
}

// Addrs returns the bound listener addresses (with resolved ports).
func (l *Live) Addrs() []net.Addr {
	out := make([]net.Addr, len(l.listeners))
	for i, ln := range l.listeners {
		out[i] = ln.Addr()
	}
	return out
}

// Sessions returns the capture channel. It is closed after Close once all
// in-flight connections finish.
func (l *Live) Sessions() <-chan tcpasm.Session { return l.sessions }

// Close stops accepting and closes the session channel after in-flight
// handlers drain.
func (l *Live) Close() {
	l.closeOnce.Do(func() {
		close(l.done)
		for _, ln := range l.listeners {
			ln.Close()
		}
		go func() {
			l.wg.Wait()
			close(l.sessions)
		}()
	})
}

func (l *Live) acceptLoop(ln net.Listener) {
	defer l.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-l.done:
				return
			default:
				continue
			}
		}
		l.wg.Add(1)
		go l.handle(conn)
	}
}

// handle implements the DSCOPE instance behaviour: complete the handshake
// (done by the kernel), send nothing, read whatever the client volunteers
// within the banner window, and record it.
func (l *Live) handle(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	start := time.Now().UTC()
	_ = conn.SetReadDeadline(start.Add(l.cfg.BannerWindow))

	buf := make([]byte, 4096)
	var banner []byte
	closed := false
	for len(banner) < maxBanner {
		n, err := conn.Read(buf)
		banner = append(banner, buf[:n]...)
		if err != nil {
			// EOF means the client finished and closed cleanly; a deadline
			// expiry means the banner window elapsed with the peer silent.
			closed = errors.Is(err, io.EOF)
			break
		}
	}
	if len(banner) > maxBanner {
		banner = banner[:maxBanner]
	}
	s := tcpasm.Session{
		Client:     endpointOf(conn.RemoteAddr()),
		Server:     endpointOf(conn.LocalAddr()),
		Start:      start,
		End:        time.Now().UTC(),
		ClientData: banner,
		Complete:   true,
		Closed:     closed,
	}
	select {
	case l.sessions <- s:
	case <-l.done:
	}
}

func endpointOf(a net.Addr) packet.Endpoint {
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		return packet.Endpoint{}
	}
	addr, _ := netip.AddrFromSlice(tcp.IP)
	return packet.Endpoint{Addr: addr.Unmap(), Port: uint16(tcp.Port)}
}

// Probe dials a live telescope endpoint and sends payload, mimicking one
// scanner session. It waits briefly for (absent) server data, matching real
// scanner behaviour against an unresponsive service.
func Probe(ctx context.Context, addr string, payload []byte) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("telescope: probe dial %s: %w", addr, err)
	}
	defer conn.Close()
	if _, err := conn.Write(payload); err != nil {
		return fmt.Errorf("telescope: probe write: %w", err)
	}
	// Half-close to signal end of banner, then linger briefly.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 16)
	_, _ = conn.Read(buf)
	return nil
}
