package main

import (
	"testing"

	"servo"
)

// TestNewConfigRejectsUnknownNames: a misspelt -world or -profile is a
// usage error, never the default world or the Servo profile in its place.
func TestNewConfigRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct{ world, profile string }{
		{"flatt", "servo"},
		{"", "servo"},
		{"default", "opencraf"},
		{"flat", ""},
	} {
		if _, err := newConfig(tc.world, tc.profile, true, 1); err == nil {
			t.Errorf("-world %q -profile %q: no error", tc.world, tc.profile)
		}
	}
	cfg, err := newConfig("flat", "opencraft", false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WorldType != "flat" || cfg.Profile != servo.Opencraft || cfg.Seed != 7 || !cfg.RealTime || cfg.Servo != (servo.Serverless{}) {
		t.Fatalf("config %+v", cfg)
	}
	if cfg, _ := newConfig("default", "minecraft", true, 1); cfg.Profile != servo.Minecraft || cfg.Servo != servo.AllServerless() {
		t.Fatalf("config %+v", cfg)
	}
}
