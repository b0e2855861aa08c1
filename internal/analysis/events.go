package analysis

import (
	"time"

	"honeynet/internal/report"
)

// Event is one documented external attack event from the section 10
// calendar.
type Event struct {
	Name     string
	From, To time.Time
}

// EventCalendar lists the section 10 events the paper correlates with
// the campaign's low-activity periods.
var EventCalendar = []Event{
	{"IRIDIUM DDoS vs Ukrainian infrastructure", day(2022, 3, 16), day(2022, 3, 25)},
	{"Follow-up attack wave", day(2022, 4, 2), day(2022, 4, 13)},
	{"Hits on EU-country infrastructure", day(2022, 8, 1), day(2022, 8, 3)},
	{"Sandworm vs UA power grid + Killnet vs US airports", day(2022, 10, 10), day(2022, 10, 17)},
	{"KyivStar attack", day(2023, 3, 2), day(2023, 3, 11)},
	{"DDoS vs UA public administration and media", day(2023, 9, 1), day(2023, 9, 9)},
	{"APT29 data-theft attack", day(2024, 1, 19), day(2024, 1, 22)},
	{"Sandworm vs UA infrastructure", day(2024, 4, 4), day(2024, 4, 11)},
}

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// EventWindow summarizes campaign activity inside one event window
// against its surrounding baseline.
type EventWindow struct {
	Event Event
	// InsidePerDay is the mean mdrfckr sessions/day during the event.
	InsidePerDay float64
	// BaselinePerDay is the mean over the 14 days before and after.
	BaselinePerDay float64
}

// DropRatio returns inside/baseline (0 when there is no baseline).
func (e *EventWindow) DropRatio() float64 {
	if e.BaselinePerDay == 0 {
		return 0
	}
	return e.InsidePerDay / e.BaselinePerDay
}

// EventCorrelation quantifies the section 10 observation: the campaign's
// activity collapses during each documented event window relative to the
// two weeks on either side.
func EventCorrelation(w *World) []EventWindow {
	perDay := map[time.Time]int{}
	for _, d := range Fig12(w) {
		perDay[d.Day] = d.Sessions
	}
	mean := func(from, to time.Time) float64 {
		days, total := 0, 0
		for d := from; d.Before(to); d = d.AddDate(0, 0, 1) {
			days++
			total += perDay[d]
		}
		if days == 0 {
			return 0
		}
		return float64(total) / float64(days)
	}
	out := make([]EventWindow, 0, len(EventCalendar))
	for _, ev := range EventCalendar {
		inside := mean(ev.From, ev.To)
		before := mean(ev.From.AddDate(0, 0, -14), ev.From)
		after := mean(ev.To, ev.To.AddDate(0, 0, 14))
		out = append(out, EventWindow{
			Event:          ev,
			InsidePerDay:   inside,
			BaselinePerDay: (before + after) / 2,
		})
	}
	return out
}

// EventsTable renders the correlation.
func EventsTable(rows []EventWindow) *report.Table {
	t := &report.Table{
		Title:   "Section 10: mdrfckr activity during documented attack events",
		Headers: []string{"event", "window", "inside/day", "baseline/day", "ratio"},
	}
	for _, r := range rows {
		t.AddRow(r.Event.Name,
			r.Event.From.Format("2006-01-02")+".."+r.Event.To.Format("01-02"),
			r.InsidePerDay, r.BaselinePerDay, r.DropRatio())
	}
	return t
}
