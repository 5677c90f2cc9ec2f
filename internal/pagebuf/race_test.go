//go:build race

package pagebuf

func init() { raceDetectorEnabled = true }
