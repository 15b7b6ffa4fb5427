// Command servo-bot drives one or more workload bots against a running
// servo-server instance over TCP, in the spirit of the Yardstick benchmark
// bots the paper's experiments use.
//
// Usage:
//
//	servo-bot -addr 127.0.0.1:25565 -n 10 -behavior random -duration 60s
//
// Behaviors: random (Table II mix), star (walk away from spawn), idle.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"servo/internal/metrics"
	"servo/internal/netproto"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:25565", "server address")
	n := flag.Int("n", 1, "number of bots")
	behavior := flag.String("behavior", "random", "bot behavior: random, star, idle")
	duration := flag.Duration("duration", 60*time.Second, "how long to run")
	speed := flag.Float64("speed", 3, "movement speed for the star behavior")
	flag.Parse()

	var wg sync.WaitGroup
	var updates, chunks, failed int64
	bots := make([]*bot, *n)
	for i := range bots {
		bots[i] = &bot{id: i, updates: &updates, chunks: &chunks}
		wg.Add(1)
		go func(b *bot) {
			defer wg.Done()
			if err := b.run(*addr, *behavior, *speed, *duration); err != nil {
				log.Printf("bot-%d: %v", b.id, err)
				atomic.AddInt64(&failed, 1)
			}
		}(bots[i])
	}
	wg.Wait()
	// What a player feels: from sending a move to the first state update
	// that shows the avatar displaced.
	felt := metrics.NewSample(0)
	for _, b := range bots {
		felt.AddAll(b.felt)
	}
	fmt.Printf("servo-bot: %d bots done; received %d state updates, %d chunks; action→update p50/p95 %.1f/%.1f ms (%d)\n",
		*n, atomic.LoadInt64(&updates), atomic.LoadInt64(&chunks),
		ms(felt.Percentile(50)), ms(felt.Percentile(95)), felt.Len())
	if failed > 0 {
		os.Exit(1)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bot is one connection. The reader goroutine and the action loop share
// the avatar's last seen position and the move being timed under mu.
type bot struct {
	id              int
	updates, chunks *int64

	mu           sync.Mutex
	x, z         float64 // the avatar in the last state update
	atRest       bool    // the last two updates showed it in the same place
	timing       bool    // a move is in flight whose effect has not been seen
	sentAt       time.Time
	fromX, fromZ float64
	felt         []time.Duration
}

// observe takes the avatar's position from one state update.
func (b *bot) observe(x, z float64, at time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.timing && math.Hypot(x-b.fromX, z-b.fromZ) > 1e-3 {
		b.felt = append(b.felt, at.Sub(b.sentAt))
		b.timing = false
	}
	b.atRest = x == b.x && z == b.z
	b.x, b.z = x, z
}

// sendingMove starts timing a move about to be sent. Only a move from
// rest is timed: an avatar still walking is displaced by the next update
// whatever the server did with the new move.
func (b *bot) sendingMove() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.timing = b.atRest
	b.sentAt, b.fromX, b.fromZ = time.Now(), b.x, b.z
}

func (b *bot) run(addr, behavior string, speed float64, d time.Duration) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()

	if err := netproto.Write(conn, netproto.Message{
		Type: netproto.MsgJoin, Name: fmt.Sprintf("bot-%d", b.id),
	}); err != nil {
		return err
	}
	r := netproto.NewReader(conn)
	welcome, err := r.Next()
	if err != nil || welcome.Type != netproto.MsgWelcome {
		return fmt.Errorf("no welcome (got %v, %v)", welcome.Type, err)
	}

	// Reader goroutine: count what the server streams to us and follow our
	// own avatar. seen is closed at the second sighting, when the bot
	// knows where it stands and that it stands still.
	seen := make(chan struct{})
	go func() {
		sightings := 0
		for {
			m, err := r.Next()
			if err != nil {
				return
			}
			switch m.Type {
			case netproto.MsgStateUpdate:
				atomic.AddInt64(b.updates, 1)
				for _, a := range m.Avatars {
					if a.ID == welcome.PlayerID {
						b.observe(a.X, a.Z, time.Now())
						if sightings++; sightings == 2 {
							close(seen)
						}
						break
					}
				}
			case netproto.MsgChunkData:
				atomic.AddInt64(b.chunks, 1)
			}
		}
	}()
	select {
	case <-seen:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("no state update showing the bot's avatar within 5 s of joining")
	}

	rng := rand.New(rand.NewSource(int64(b.id) + 1))
	deadline := time.Now().Add(d)
	angle := 2 * math.Pi * float64(b.id%16) / 16
	var x, z float64
	for time.Now().Before(deadline) {
		var msg netproto.Message
		switch behavior {
		case "star":
			x += math.Cos(angle) * speed
			z += math.Sin(angle) * speed
			msg = netproto.Message{Type: netproto.MsgMove, DestX: x, DestZ: z, Speed: speed}
		case "idle":
			msg = netproto.Message{Type: netproto.MsgPing, Nonce: uint64(b.id)}
		default: // random: rough Table II mix
			switch roll := rng.Float64(); {
			case roll < 0.4:
				msg = netproto.Message{
					Type:  netproto.MsgMove,
					DestX: x + rng.Float64()*32 - 16,
					DestZ: z + rng.Float64()*32 - 16,
					Speed: 1 + rng.Float64()*7,
				}
			case roll < 0.7:
				msg = netproto.Message{Type: netproto.MsgBreakBlock}
			case roll < 0.9:
				msg = netproto.Message{Type: netproto.MsgPing, Nonce: rng.Uint64()}
			case roll < 0.95:
				msg = netproto.Message{Type: netproto.MsgChat, Text: "hello"}
			default:
				msg = netproto.Message{Type: netproto.MsgSetInventory, Item: uint8(rng.Intn(36))}
			}
		}
		if msg.Type == netproto.MsgMove {
			b.sendingMove()
		}
		if err := netproto.Write(conn, msg); err != nil {
			return err
		}
		time.Sleep(time.Second)
	}
	return nil
}
