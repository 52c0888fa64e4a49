#include "ar_timed.hpp"

// ticsverify --source reports an io finding at each radio transmission point
// (sends are inherently non-idempotent; a reboot between send and
// checkpoint duplicates the packet) and WAR spans on the activity
// counters. Both timed variants accept these — the paper's timely
// extension bounds staleness, not send idempotency — so the findings
// are expected and baselined in tools/ticslint.baseline.json.

namespace ticsim::apps {

bool
arWindowMoving(const std::int32_t *mags, std::uint32_t n)
{
    std::int32_t lo = mags[0];
    std::int32_t hi = mags[0];
    for (std::uint32_t i = 1; i < n; ++i) {
        lo = mags[i] < lo ? mags[i] : lo;
        hi = mags[i] > hi ? mags[i] : hi;
    }
    return hi - lo > 400;
}

// ---- manual time management (the violating baseline) -------------------

ArTimedManualApp::ArTimedManualApp(board::Board &b,
                                   runtimes::MementosRuntime &rt,
                                   ArTimedParams p)
    : b_(b), rt_(rt), params_(p), state_(b.nvram(), "art.state"),
      window_(b.nvram(), "art.window"),
      processed_(b.nvram(), "art.processed"),
      alerts_(b.nvram(), "art.alerts")
{
    rt.trackGlobals(state_.raw(), sizeof(State));
    rt.trackGlobals(window_.raw(), sizeof(std::uint32_t));
    rt.trackGlobals(processed_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(alerts_.raw(), sizeof(std::uint64_t));
    rt.footprint().add("ar-timed application", 2600,
                       sizeof(State) + 4);
}

void
ArTimedManualApp::main()
{
    board::FrameGuard fg(rt_, 24);
    constexpr auto kW = ArTimedParams::kWindow;

    while (window_.get() < params_.windows) {
        rt_.triggerPoint();
        const std::uint32_t win = window_.get();
        State *st = state_.raw();

        for (std::uint32_t i = 0; i < kW; ++i) {
            const std::uint64_t inst =
                static_cast<std::uint64_t>(win) * kW + i;
            // Sensor cadence with natural conversion-time jitter.
            b_.charge(params_.interSampleCycles + b_.rng().below(2400));
            rt_.triggerPoint();
            const auto s = b_.sampleAccel();
            b_.monitor().dataSampled("accel", inst, b_.now());
            st->mags[i] = accelMagnitude(s);
            // Raw-to-unit conversion between sampling and
            // timestamping: the gap a checkpoint can split (Fig. 3c).
            b_.charge(params_.convertCycles);
            rt_.triggerPoint();
            const TimeNs t = b_.deviceNow();
            st->ts[i] = t;
            b_.monitor().timestampAssigned("accel", inst, t,
                                           10 * kNsPerMs);
        }

        // Featurize + classify: consumes the window with no freshness
        // guard — legacy code has no notion of expiry (Fig. 3d).
        rt_.triggerPoint();
        const TimeNs consumeAt = b_.now();
        for (std::uint32_t i = 0; i < kW; ++i) {
            b_.monitor().dataConsumed(
                "accel", static_cast<std::uint64_t>(win) * kW + i,
                params_.freshness, consumeAt);
        }
        b_.charge(static_cast<Cycles>(30 + 14 * kW));
        const bool moving = arWindowMoving(st->mags, kW);
        processed_ += 1;

        ArTraceEvent ev;
        ev.window = win;
        ev.at = b_.now();
        ev.fresh = true;

        const std::int32_t act = moving ? 1 : 0;
        if (act != st->lastActivity) {
            ev.switched = true;
            // Alert preparation (payload assembly, radio wake), then
            // the timely branch — with a checkpointable gap before the
            // time read (Fig. 3b).
            b_.charge(2400);
            rt_.triggerPoint();
            const TimeNs t2 = b_.deviceNow();
            const bool taken =
                t2 < st->activityStart + params_.alertDeadline ||
                st->activityStart == 0;
            b_.monitor().branchArm("alert", win, taken ? 0 : 1);
            if (taken) {
                std::uint8_t payload[4] = {
                    static_cast<std::uint8_t>(act), 0xA1, 0xE7,
                    static_cast<std::uint8_t>(win & 0xFF)};
                b_.radioSend(payload, sizeof(payload));
                alerts_ += 1;
                ev.alerted = true;
            }
            st->lastActivity = act;
            st->activityStart = t2;
        }
        trace_.push_back(ev);
        window_ = win + 1;
    }
}

// ---- the TICS-annotated port ---------------------------------------------

ArTimedTicsApp::ArTimedTicsApp(board::Board &b, tics::TicsRuntime &rt,
                               ArTimedParams p)
    : b_(b), rt_(rt), params_(p),
      accel_(rt, b.nvram(), "accel", p.freshness),
      // Guard margin: the window-start marker is stamped ~2 ms after
      // the first physical sample, so its budget is tightened to keep
      // every sample inside the declared freshness window.
      winStart_(rt, b.nvram(), "accel.winStart",
                p.freshness - 10 * kNsPerMs),
      window_(b.nvram(), "artt.window"),
      lastActivity_(b.nvram(), "artt.lastActivity"),
      activityStart_(b.nvram(), "artt.activityStart"),
      processed_(b.nvram(), "artt.processed"),
      discarded_(b.nvram(), "artt.discarded"),
      alerts_(b.nvram(), "artt.alerts")
{
    rt.footprint().add("ar-timed application", 2380, 16);
    rt.footprint().add("time annotations", 210, 0);
}

void
ArTimedTicsApp::main()
{
    board::FrameGuard fg(rt_, 24);
    constexpr auto kW = ArTimedParams::kWindow;

    while (window_.get() < params_.windows) {
        rt_.triggerPoint();
        const std::uint32_t win = window_.get();

        for (std::uint32_t i = 0; i < kW; ++i) {
            const std::uint64_t inst =
                static_cast<std::uint64_t>(win) * kW + i;
            b_.charge(params_.interSampleCycles + b_.rng().below(2400));
            rt_.triggerPoint();
            // accel[i] @= read_acc(): sampling, conversion and
            // timestamping form one atomic block.
            rt_.beginAtomic();
            const auto s = b_.sampleAccel();
            b_.monitor().dataSampled("accel", inst, b_.now());
            b_.charge(params_.convertCycles);
            Window arr = accel_.get();
            arr[i] = accelMagnitude(s);
            if (i == 0) {
                // The window-start marker is observed inside the same
                // atomic region as the first physical sample, so no
                // checkpoint can separate them; consumption is guarded
                // on this marker, keeping every sample of a consumed
                // window inside the freshness budget.
                b_.monitor().dataSampled(winStart_.id(), win, b_.now());
            }
            // Both timed assignments complete inside this same atomic
            // region (their own atomic blocks nest), so no checkpoint
            // can ever separate the physical sample from either of its
            // timestamps; the mandated checkpoint lands once, after.
            if (i == 0)
                winStart_.assignTimed(win, win);
            accel_.assignTimed(arr, inst);
            rt_.endAtomic(/*checkpoint=*/true);
        }

        // @expires(window start){ featurize + classify } — windows
        // whose oldest sample aged out are discarded, not consumed.
        ArTraceEvent ev;
        ev.window = win;
        bool moving = false;
        const TimeNs entryAt = b_.now();
        const bool fresh = tics::expires(rt_, winStart_, win, [&] {
            for (std::uint32_t i = 0; i < kW; ++i) {
                b_.monitor().dataConsumed(
                    "accel", static_cast<std::uint64_t>(win) * kW + i,
                    params_.freshness, entryAt);
            }
            b_.charge(static_cast<Cycles>(30 + 14 * kW));
            moving = arWindowMoving(accel_.get().data(), kW);
        });
        ev.at = b_.now();
        ev.fresh = fresh;

        if (!fresh) {
            discarded_ += 1;
        } else {
            processed_ += 1;
            const std::int32_t act = moving ? 1 : 0;
            if (act != lastActivity_.get()) {
                ev.switched = true;
                // @timely(start + 200ms){ ALERT } else { }
                const TimeNs start = activityStart_.get();
                const TimeNs deadline =
                    start == 0 ? ~TimeNs(0)
                               : start + params_.alertDeadline;
                const bool alerted = tics::timely(
                    rt_, "alert", win, deadline,
                    [&] {
                        std::uint8_t payload[4] = {
                            static_cast<std::uint8_t>(act), 0xA1, 0xE7,
                            static_cast<std::uint8_t>(win & 0xFF)};
                        b_.radioSend(payload, sizeof(payload));
                        alerts_ += 1;
                    },
                    [] {});
                ev.alerted = alerted;
                lastActivity_ = act;
                activityStart_ = rt_.deviceNow();
            }
        }
        trace_.push_back(ev);
        window_ = win + 1;
    }
}

} // namespace ticsim::apps
