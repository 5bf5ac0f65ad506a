package workload

import (
	"fmt"
	"math/rand"
	"time"

	"besteffs/internal/calendar"
	"besteffs/internal/object"
	"besteffs/internal/sim"
)

// Lecture is the lecture-capture workload of Sections 5.2 (Courses == 1,
// one instructor recording every term) and 5.3 (Courses == 2321, the whole
// university). Lectures meet Monday/Wednesday/Friday during each term.
// Every lecture day each course produces one university-camera stream
// (1 Mbps in the paper) annotated with the Table 1 two-step lifetime, plus
// up to MaxStudentStreams student-created 320x240 streams at half the
// initial importance and a two-week wane.
//
// To keep the event queue small at university scale, the generator
// schedules one event per lecture day and emits that day's objects from the
// handler, spreading arrivals over the teaching hours.
type Lecture struct {
	// Courses is the number of concurrent courses each term (default 1).
	Courses int
	// UniversityBitrateMbps sizes camera streams (default 1.0, the
	// paper's "1 Mbps video stream").
	UniversityBitrateMbps float64
	// StudentBitrateMbps sizes student streams (default 0.3, a 320x240
	// MPEG4 stream for the video iPod / PSP).
	StudentBitrateMbps float64
	// MaxStudentStreams caps student interpretations per lecture
	// (default 3: "up to three students").
	MaxStudentStreams int
	// MinLectureMinutes and MaxLectureMinutes bound the uniformly drawn
	// lecture length (defaults 50 and 75).
	MinLectureMinutes, MaxLectureMinutes int
	// IDPrefix namespaces generated object IDs (default "lec").
	IDPrefix string
	// KeepLog retains the arrival log for time-constant analysis.
	KeepLog bool

	arrivals []Arrival
	counts   LectureCounts
	errCollector
}

// LectureCounts tallies the generated objects by class.
type LectureCounts struct {
	UniversityObjects, StudentObjects int
	UniversityBytes, StudentBytes     int64
}

// Arrivals returns the arrival log (only populated with KeepLog).
func (l *Lecture) Arrivals() []Arrival { return l.arrivals }

// Counts returns the per-class generation tallies.
func (l *Lecture) Counts() LectureCounts { return l.counts }

// Install schedules the workload on the engine from time zero to horizon.
func (l *Lecture) Install(eng *sim.Engine, sink Sink, rng *rand.Rand, horizon time.Duration) error {
	if err := checkCommon(eng, sink, rng); err != nil {
		return err
	}
	if l.Courses == 0 {
		l.Courses = 1
	}
	if l.Courses < 0 {
		return fmt.Errorf("workload: %d courses", l.Courses)
	}
	if l.UniversityBitrateMbps == 0 {
		l.UniversityBitrateMbps = 1.0
	}
	if l.StudentBitrateMbps == 0 {
		l.StudentBitrateMbps = 0.3
	}
	if l.MaxStudentStreams == 0 {
		l.MaxStudentStreams = 3
	}
	if l.MinLectureMinutes == 0 {
		l.MinLectureMinutes = 50
	}
	if l.MaxLectureMinutes == 0 {
		l.MaxLectureMinutes = 75
	}
	if l.MinLectureMinutes < 0 || l.MaxLectureMinutes < l.MinLectureMinutes {
		return fmt.Errorf("workload: bad lecture length bounds [%d, %d]",
			l.MinLectureMinutes, l.MaxLectureMinutes)
	}
	if l.IDPrefix == "" {
		l.IDPrefix = "lec"
	}

	for day := time.Duration(0); day < horizon; day += calendar.Day {
		if !calendar.IsLectureDay(day) {
			continue
		}
		day := day
		err := eng.Schedule(day+8*time.Hour, func(now time.Duration) {
			l.emitDay(sink, rng, day, now)
		})
		if err != nil {
			return fmt.Errorf("workload: schedule lecture day: %w", err)
		}
	}
	return nil
}

// emitDay generates every course's objects for one lecture day.
func (l *Lecture) emitDay(sink Sink, rng *rand.Rand, day, now time.Duration) {
	year, dayOfYear := calendar.DayOfYear(day)
	term := calendar.TermAt(day)
	for course := 0; course < l.Courses; course++ {
		// Spread the teaching day over 8h of class slots.
		at := now + time.Duration(rng.Intn(8*60))*time.Minute
		minutes := l.MinLectureMinutes
		if spread := l.MaxLectureMinutes - l.MinLectureMinutes; spread > 0 {
			minutes += rng.Intn(spread + 1)
		}
		base := fmt.Sprintf("%s/c%04d/y%d-%s/d%03d", l.IDPrefix, course, year, term, dayOfYear)
		l.emit(sink, object.ClassUniversity, object.ID(base+"/u"),
			streamBytes(l.UniversityBitrateMbps, minutes), at)
		for s, n := 0, rng.Intn(l.MaxStudentStreams+1); s < n; s++ {
			studentAt := at + time.Duration(1+rng.Intn(6*60))*time.Minute
			l.emit(sink, object.ClassStudent, object.ID(fmt.Sprintf("%s/s%d", base, s)),
				streamBytes(l.StudentBitrateMbps, minutes), studentAt)
		}
	}
}

// emit builds and offers one object.
func (l *Lecture) emit(sink Sink, class object.Class, id object.ID, size int64, at time.Duration) {
	lifetime, err := calendar.LectureLifetime(class, at)
	if err != nil {
		// A student arrival jittered past the end of the term keeps the
		// lifetime of the lecture's day.
		lifetime, err = calendar.LectureLifetime(class, at-calendar.Day)
		if err != nil {
			l.record(fmt.Errorf("workload: lifetime for %s: %w", id, err))
			return
		}
	}
	o, err := object.New(id, size, at, lifetime)
	if err != nil {
		l.record(fmt.Errorf("workload: bad lecture object %s: %w", id, err))
		return
	}
	o.Class = class
	switch class {
	case object.ClassStudent:
		o.SetOwner("student")
		l.counts.StudentObjects++
		l.counts.StudentBytes += size
	default:
		o.SetOwner("university")
		l.counts.UniversityObjects++
		l.counts.UniversityBytes += size
	}
	if l.KeepLog {
		l.arrivals = append(l.arrivals, Arrival{Time: at, Size: size})
	}
	if err := sink.Offer(o, at); err != nil {
		l.record(err)
	}
}

// streamBytes converts a bitrate and duration to a payload size.
func streamBytes(mbps float64, minutes int) int64 {
	return int64(mbps * 1e6 / 8 * float64(minutes) * 60)
}
