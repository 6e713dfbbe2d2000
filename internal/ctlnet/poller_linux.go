//go:build linux

package ctlnet

import (
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// The Linux backend: each of cfg.Pollers loops owns an epoll instance and
// the connections assigned to it (fd mod pollers). Go sockets are already
// non-blocking, so raw syscall.Read on the extracted fd drains a readable
// connection without touching the runtime netpoller; level-triggered epoll
// re-reports anything left behind.
//
// The loop never blocks inside epoll_wait. A goroutine blocked in a raw
// syscall keeps its P until sysmon retakes it, and an idle process' sysmon
// polls only every 10 ms and needs two looks: on a 2-CPU host, two loops
// re-entering epoll_wait(-1) froze every other goroutine — shard timers,
// consensus, the agents' writers — for 10-20 ms at a time, which the detector
// read as silence. An epoll descriptor is itself pollable (readable while it
// has events queued), so it is registered with the runtime's own netpoller:
// the loop parks as an ordinary goroutine until the instance has something,
// then collects it with a zero-timeout epoll_wait.
//
// fd-recycling safety: events are processed under the loop's mutex, and a
// connection is always removed from the fd map (evict) before anything
// closes it. An event dequeued for an fd that was since evicted finds no
// map entry and is ignored; an fd recycled onto a *new* parked connection
// resolves, at processing time, to the new pollConn — which is exactly the
// connection that is readable.

// newPoller builds the platform poller: n epoll loops.
func newPoller(s *Server, n int) connPoller {
	set := &epollSet{}
	for i := 0; i < n; i++ {
		set.loops = append(set.loops, newEpollLoop(s))
	}
	return set
}

type epollSet struct {
	loops []*epollLoop
}

func (p *epollSet) loopFor(pc *pollConn) *epollLoop {
	if pc.fd >= 0 {
		return p.loops[pc.fd%len(p.loops)]
	}
	return p.loops[0]
}

func (p *epollSet) park(pc *pollConn)  { p.loopFor(pc).park(pc) }
func (p *epollSet) evict(pc *pollConn) { p.loopFor(pc).evict(pc) }
func (p *epollSet) close() {
	for _, l := range p.loops {
		l.close()
	}
}

type epollLoop struct {
	s    *Server
	epfd int
	// file owns epfd and keeps it registered with the runtime netpoller;
	// ready parks the loop on it (see run).
	file  *os.File
	ready syscall.RawConn
	// wake unblocks EpollWait for shutdown (self-pipe).
	wakeR, wakeW int
	rc           readCtx

	mu     sync.Mutex
	conns  map[int]*pollConn
	closed bool

	wg sync.WaitGroup
}

func newEpollLoop(s *Server) *epollLoop {
	l := &epollLoop{s: s, epfd: -1, wakeR: -1, wakeW: -1, conns: make(map[int]*pollConn)}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return l // degenerate loop: park falls back to serveActive-per-conn
	}
	// os.NewFile hands a non-blocking descriptor to the runtime netpoller;
	// SetReadDeadline fails exactly when that registration did not take.
	syscall.SetNonblock(epfd, true)
	file := os.NewFile(uintptr(epfd), "ctlnet-epoll")
	ready, err := file.SyscallConn()
	if err == nil {
		err = file.SetReadDeadline(time.Time{})
	}
	var p [2]int
	if err == nil {
		err = syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC)
	}
	if err != nil {
		file.Close()
		return l
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p[0], &ev); err != nil {
		file.Close()
		syscall.Close(p[0])
		syscall.Close(p[1])
		return l
	}
	l.epfd, l.file, l.ready, l.wakeR, l.wakeW = epfd, file, ready, p[0], p[1]
	l.wg.Add(1)
	go l.run()
	return l
}

// connFD extracts a TCP connection's raw file descriptor; (-1, false) for
// non-TCP conns (tests with pipes) or extraction failures.
func connFD(conn net.Conn) (int, bool) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return -1, false
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return -1, false
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil || fd < 0 {
		return -1, false
	}
	return fd, true
}

func (l *epollLoop) park(pc *pollConn) {
	if l.epfd < 0 || pc.fd < 0 {
		// No epoll (or no raw fd): fall back to a dedicated handler
		// goroutine, preserving correctness at the old cost for this conn.
		l.s.mu.Lock()
		closed := l.s.closed
		l.s.mu.Unlock()
		if closed {
			pc.conn.Close()
			return
		}
		l.s.wg.Add(1)
		go l.s.serveActiveBlocking(pc)
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		pc.conn.Close()
		return
	}
	l.conns[pc.fd] = pc
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(pc.fd)}
	err := syscall.EpollCtl(l.epfd, syscall.EPOLL_CTL_ADD, pc.fd, &ev)
	if err != nil {
		delete(l.conns, pc.fd)
	}
	l.mu.Unlock()
	if err != nil {
		l.s.dropConn(pc, err)
	}
}

func (l *epollLoop) evict(pc *pollConn) {
	if l.epfd < 0 || pc.fd < 0 {
		return
	}
	l.mu.Lock()
	l.evictLocked(pc)
	l.mu.Unlock()
}

func (l *epollLoop) evictLocked(pc *pollConn) {
	if cur, ok := l.conns[pc.fd]; ok && cur == pc {
		delete(l.conns, pc.fd)
		syscall.EpollCtl(l.epfd, syscall.EPOLL_CTL_DEL, pc.fd, nil)
	}
}

func (l *epollLoop) close() {
	if l.epfd < 0 {
		return
	}
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if !already {
		var one [1]byte
		syscall.Write(l.wakeW, one[:])
	}
	l.wg.Wait()
	l.file.Close()
	syscall.Close(l.wakeR)
	syscall.Close(l.wakeW)
}

func (l *epollLoop) run() {
	defer l.wg.Done()
	events := make([]syscall.EpollEvent, 128)
	var n int
	var err error
	// collect is the readiness probe the netpoller wait retries: true once
	// the instance yields events (or fails), false to park until it reads
	// as ready again.
	collect := func(fd uintptr) bool {
		for {
			n, err = syscall.EpollWait(int(fd), events, 0)
			if err != syscall.EINTR {
				return n > 0 || err != nil
			}
		}
	}
	for {
		if werr := l.ready.Read(collect); werr != nil || err != nil {
			return
		}
		var drops []*pollConn
		var dropErrs []error
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == l.wakeR {
				continue // closed flag re-checked next wait
			}
			pc, ok := l.conns[fd]
			if !ok {
				continue
			}
			if err := l.serveReadable(pc); err != nil {
				if _, promoted := err.(handoffMarker); promoted {
					continue
				}
				l.evictLocked(pc)
				drops = append(drops, pc)
				dropErrs = append(dropErrs, err)
			}
		}
		closed := l.closed
		l.mu.Unlock()
		for i, pc := range drops {
			l.s.dropConn(pc, dropErrs[i])
		}
		if closed {
			return
		}
	}
}

// errHandoff is serveReadable's "not an error" signal that the conn was
// promoted to serveActive and must leave the fd map without dropping.
type handoffMarker struct{}

func (handoffMarker) Error() string { return "handoff" }

// serveReadable drains one readable parked connection (l.mu held): raw
// non-blocking reads into the accumulator, fast frames dispatched inline,
// slow frames promoting the conn to serveActive. Returns nil to keep the
// conn parked, handoffMarker{} after promotion, or a real error to drop.
func (l *epollLoop) serveReadable(pc *pollConn) error {
	for {
		spare := pc.accSpare(512)
		n, err := syscall.Read(pc.fd, spare)
		if n > 0 {
			pc.acc = pc.acc[:len(pc.acc)+n]
			handoff, perr := l.s.pumpBuffered(pc, &l.rc)
			if perr != nil {
				return perr
			}
			if handoff {
				l.evictLocked(pc)
				l.s.wg.Add(1)
				go l.s.serveActive(pc)
				return handoffMarker{}
			}
			continue
		}
		if n == 0 && err == nil {
			return io.EOF
		}
		switch err {
		case syscall.EAGAIN:
			pc.releaseAcc()
			return nil
		case syscall.EINTR:
			continue
		default:
			return err
		}
	}
}
