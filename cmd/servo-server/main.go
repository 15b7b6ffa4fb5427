// Command servo-server runs an interactive MVE server in real time on a
// TCP socket, with the Servo serverless backend (simulated in-process) or
// a pure baseline profile.
//
// Usage:
//
//	servo-server -addr :25565 -world default -profile servo
//	servo-server -profile opencraft -serverless=false
//
// Clients speak the internal/netproto protocol; cmd/servo-bot provides a
// workload client.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"

	"servo"
	"servo/internal/rtserve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:25565", "listen address")
	worldType := flag.String("world", "default", "world type: default or flat")
	profile := flag.String("profile", "servo", "cost profile: servo, opencraft, minecraft")
	serverless := flag.Bool("serverless", true, "enable the Servo serverless backend")
	seed := flag.Int64("seed", 42, "world seed")
	flag.Parse()

	cfg, err := newConfig(*worldType, *profile, *serverless, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servo-server: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	inst := servo.NewInstance(cfg)
	defer inst.Stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("servo-server: listen: %v", err)
	}
	defer ln.Close()
	log.Printf("servo-server: %s world %q on %s (serverless=%v)",
		cfg.Profile, *worldType, ln.Addr(), *serverless)

	srv := rtserve.NewServer(inst, rtserve.Config{Logf: log.Printf})
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Printf("servo-server: accept loop ended: %v", err)
		}
	}()
	defer srv.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("servo-server: shutting down; %s; %+v", inst.TickStats(), srv.Stats())
}

// newConfig builds the real-time instance config the flags select. An
// unknown world type or profile is an error: neither falls back to a
// default.
func newConfig(worldType, profile string, serverless bool, seed int64) (servo.Config, error) {
	cfg := servo.Config{Seed: seed, WorldType: worldType, RealTime: true}
	switch worldType {
	case "default", "flat":
	default:
		return cfg, fmt.Errorf(`-world must be "default" or "flat" (got %q)`, worldType)
	}
	switch profile {
	case "servo":
		cfg.Profile = servo.ServoProfile
	case "opencraft":
		cfg.Profile = servo.Opencraft
	case "minecraft":
		cfg.Profile = servo.Minecraft
	default:
		return cfg, fmt.Errorf(`-profile must be "servo", "opencraft" or "minecraft" (got %q)`, profile)
	}
	if serverless {
		cfg.Servo = servo.AllServerless()
	}
	return cfg, nil
}
