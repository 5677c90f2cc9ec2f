//go:build race

package analyze

func init() { raceDetectorEnabled = true }
