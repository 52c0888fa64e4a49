#include "ghm.hpp"

#include <cstring>

// ticsverify --source reports WAR spans on the phase counters and io
// findings on every radio transmission point in this file. The plain
// GHM app is the paper's motivating unprotected example — hazards are the
// subject matter, not defects — so the findings are expected and
// baselined in tools/ticslint.baseline.json.

namespace ticsim::apps {

GhmOutcome
ghmJudge(std::uint64_t m, std::uint64_t t, std::uint64_t c,
         std::uint64_t s, const device::Radio &radio)
{
    GhmOutcome o;
    o.senseMoisture = m;
    o.senseTemp = t;
    o.compute = c;
    o.send = s;

    // Lockstep: a round increments every counter once; at most one
    // round may be in flight when the budget expires.
    const auto near = [](std::uint64_t a, std::uint64_t b) {
        return (a > b ? a - b : b - a) <= 1;
    };
    bool ok = near(m, t) && near(t, c) && near(c, s);

    // The radio log must carry non-decreasing round ids. An immediate
    // re-transmission of one round is tolerated (a failure landing
    // between the send and the next commit re-executes the send — I/O
    // cannot be rolled back; the paper leaves I/O virtualization to
    // future work), but a round regression means replayed computation
    // and a round id may never repeat more than once.
    if (radio.packets().size() < s)
        ok = false;
    std::uint32_t lastRound = 0;
    std::uint32_t repeats = 0;
    bool first = true;
    for (const auto &pkt : radio.packets()) {
        if (pkt.payload.size() != sizeof(GhmPacket)) {
            ok = false;
            break;
        }
        GhmPacket gp;
        std::memcpy(&gp, pkt.payload.data(), sizeof(gp));
        if (!first) {
            if (gp.round < lastRound)
                ok = false; // replayed an older round
            else if (gp.round == lastRound && ++repeats > 1)
                ok = false; // stuck re-sending one round
            else if (gp.round > lastRound)
                repeats = 0;
        }
        lastRound = gp.round;
        first = false;
    }
    o.consistent = ok;
    return o;
}

// ---- straight-line legacy C variant ------------------------------------

GhmPlainApp::GhmPlainApp(board::Board &b, board::Runtime &rt, GhmParams p)
    : b_(b), rt_(rt), params_(p), senseM_(b.nvram(), "ghm.senseM"),
      senseT_(b.nvram(), "ghm.senseT"), compute_(b.nvram(), "ghm.compute"),
      send_(b.nvram(), "ghm.send"), round_(b.nvram(), "ghm.round")
{
    rt.footprint().add("ghm application", 1900, 40);
    rt.trackGlobals(senseM_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(senseT_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(compute_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(send_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(round_.raw(), sizeof(std::uint32_t));
}

void
GhmPlainApp::main()
{
    board::FrameGuard fg(rt_, 20);
    for (;;) {
        rt_.triggerPoint();
        const std::uint32_t round = round_.get();
        if (params_.rounds && round >= params_.rounds)
            break;

        // Pace rounds at the sensing cadence (busy-wait sleep model),
        // so the plain and TinyOS variants are directly comparable.
        const TimeNs roundDue =
            static_cast<TimeNs>(round) * params_.timerPeriod;
        while (b_.now() < roundDue) {
            rt_.triggerPoint();
            b_.charge(60);
        }

        std::int32_t moisture[8] = {};
        std::int32_t temp[8] = {};

        {
            board::FrameGuard sfg(rt_, 24);
            for (std::uint32_t i = 0; i < params_.samplesPerSense; ++i) {
                rt_.triggerPoint();
                moisture[i] = b_.sampleMoisture();
                b_.charge(params_.sampleProcessCycles);
            }
            senseM_ += 1;
        }
        {
            board::FrameGuard sfg(rt_, 24);
            for (std::uint32_t i = 0; i < params_.samplesPerSense; ++i) {
                rt_.triggerPoint();
                temp[i] = b_.sampleTemp();
                b_.charge(params_.sampleProcessCycles);
            }
            senseT_ += 1;
        }

        GhmPacket pkt{};
        {
            board::FrameGuard cfg(rt_, 16);
            rt_.triggerPoint();
            b_.charge(params_.computeCycles);
            std::int64_t sm = 0;
            std::int64_t st = 0;
            for (std::uint32_t i = 0; i < params_.samplesPerSense; ++i) {
                sm += moisture[i];
                st += temp[i];
            }
            pkt.round = round;
            pkt.avgMoisture = static_cast<std::int32_t>(
                sm / params_.samplesPerSense);
            pkt.avgTemp = static_cast<std::int32_t>(
                st / params_.samplesPerSense);
            compute_ += 1;
        }
        {
            board::FrameGuard xfg(rt_, 20);
            rt_.triggerPoint();
            b_.radioSend(&pkt, sizeof(pkt));
            send_ += 1;
        }
        round_ = round + 1;
    }
}

GhmOutcome
GhmPlainApp::outcome() const
{
    return ghmJudge(senseM_.get(), senseT_.get(), compute_.get(),
                    send_.get(), b_.radio());
}

// ---- TinyOS event-driven variant -----------------------------------------

struct GhmTinyosApp::RoundState {
    GhmTinyosApp *app;
    tinyos::Kernel *kernel;
    std::int32_t moisture[8];
    std::int32_t temp[8];
    std::uint32_t idx;
    GhmPacket pkt;
    /** Reentrancy guard: a timer tick never restarts a round that is
     *  still in flight (the one manual porting fix this event-driven
     *  legacy app needs, as the paper's Section 5.1 discussion
     *  anticipates). */
    bool busy;
};

namespace {

void ghmSenseMoistureDone(void *arg);
void ghmSenseTempDone(void *arg);
void ghmCompute(void *arg);
void ghmSendDone(void *arg);

/** Timer tick: begin a sensing round (moisture first). */
void
ghmRoundStart(void *arg)
{
    auto *st = static_cast<GhmTinyosApp::RoundState *>(arg);
    if (st->busy)
        return; // drop the tick; a round is still in flight
    st->busy = true;
    st->idx = 0;
    st->kernel->requestMoisture(&st->moisture[0], ghmSenseMoistureDone,
                                arg);
}

void
ghmSenseMoistureDone(void *arg)
{
    auto *st = static_cast<GhmTinyosApp::RoundState *>(arg);
    st->kernel->board().charge(st->app->paramsRef().sampleProcessCycles);
    if (++st->idx < st->app->paramsRef().samplesPerSense) {
        st->kernel->requestMoisture(&st->moisture[st->idx],
                                    ghmSenseMoistureDone, arg);
        return;
    }
    st->app->noteSenseMoisture();
    st->idx = 0;
    st->kernel->requestTemp(&st->temp[0], ghmSenseTempDone, arg);
}

void
ghmSenseTempDone(void *arg)
{
    auto *st = static_cast<GhmTinyosApp::RoundState *>(arg);
    st->kernel->board().charge(st->app->paramsRef().sampleProcessCycles);
    if (++st->idx < st->app->paramsRef().samplesPerSense) {
        st->kernel->requestTemp(&st->temp[st->idx], ghmSenseTempDone,
                                arg);
        return;
    }
    st->app->noteSenseTemp();
    st->kernel->postTask(ghmCompute, arg);
}

void
ghmCompute(void *arg)
{
    auto *st = static_cast<GhmTinyosApp::RoundState *>(arg);
    auto &b = st->kernel->board();
    b.charge(st->app->paramsRef().computeCycles);
    const auto n = st->app->paramsRef().samplesPerSense;
    std::int64_t sm = 0;
    std::int64_t stp = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        sm += st->moisture[i];
        stp += st->temp[i];
    }
    st->pkt.round = st->app->currentRound();
    st->pkt.avgMoisture = static_cast<std::int32_t>(sm / n);
    st->pkt.avgTemp = static_cast<std::int32_t>(stp / n);
    st->app->noteCompute();
    st->kernel->sendAM(&st->pkt, sizeof(st->pkt), ghmSendDone, arg);
}

void
ghmSendDone(void *arg)
{
    auto *st = static_cast<GhmTinyosApp::RoundState *>(arg);
    st->app->noteSendAndAdvance();
    st->busy = false;
    if (st->app->finished())
        st->kernel->stop();
}

} // namespace

GhmTinyosApp::GhmTinyosApp(board::Board &b, board::Runtime &rt,
                           GhmParams p)
    : b_(b), rt_(rt), params_(p), senseM_(b.nvram(), "ghmt.senseM"),
      senseT_(b.nvram(), "ghmt.senseT"),
      compute_(b.nvram(), "ghmt.compute"), send_(b.nvram(), "ghmt.send"),
      round_(b.nvram(), "ghmt.round")
{
    rt.footprint().add("ghm application (tinyos)", 2350, 48);
    rt.footprint().add("tinyos kernel", 1450, 0);
    rt.trackGlobals(senseM_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(senseT_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(compute_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(send_.raw(), sizeof(std::uint64_t));
    rt.trackGlobals(round_.raw(), sizeof(std::uint32_t));
}

void
GhmTinyosApp::main()
{
    board::FrameGuard fg(rt_, 48); // kernel + round state live here
    // Kernel and round state live on the simulated stack: RAM-resident
    // OS state, volatile under plain restarts, checkpointed under TICS.
    tinyos::Kernel kernel(b_, rt_);
    RoundState st{};
    st.app = this;
    st.kernel = &kernel;
    kernel.startTimer(params_.timerPeriod, ghmRoundStart, &st);
    kernel.run();
}

GhmOutcome
GhmTinyosApp::outcome() const
{
    return ghmJudge(senseM_.get(), senseT_.get(), compute_.get(),
                    send_.get(), b_.radio());
}

} // namespace ticsim::apps
