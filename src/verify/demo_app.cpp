#include "demo_app.hpp"

namespace ticsim::verify {

SensorRelayApp::SensorRelayApp(board::Board &b, tics::TicsRuntime &rt,
                               SensorRelayOptions opt)
    : b_(b), rt_(rt), opt_(opt),
      reading_(rt, b.nvram(), "relay.reading", opt.lifetime),
      rounds_(b.nvram(), "relay.rounds"), used_(b.nvram(), "relay.used"),
      stale_(b.nvram(), "relay.stale")
{
    if (opt_.useVirtualRadio)
        radio_ = std::make_unique<tics::VirtualRadio>(rt, b.nvram(),
                                                      "relay.radio");
}

// ticsverify --source reports the unguarded read (timeliness), the
// unguarded transmission (io), and the counter read-modify-writes
// (war) here. All are intentional: this app is the guarded-vs-unguarded
// demonstration the verifier cross-validates against, so the findings
// are baselined as expected (tools/ticslint.baseline.json). The
// path-insensitive analyzer reports them in the +guard configuration
// too — the documented false-positive pair in the crossval table.
void
SensorRelayApp::main()
{
    board::FrameGuard fg(rt_, 24);
    while (rounds_.get() < opt_.rounds) {
        rt_.triggerPoint();
        const std::uint64_t round = rounds_.get();
        reading_.assignTimed(b_.sampleTemp(), round);
        b_.charge(opt_.workCycles); // processing: the reading ages
        rt_.triggerPoint(); // a checkpoint here splits sample from use
        Packet p{static_cast<std::uint32_t>(round), 0};
        bool use = true;
        if (opt_.checkFreshness) {
            use = tics::expires(rt_, reading_, round, [&] {
                p.value = reading_.read(round);
                b_.charge(200); // consume(reading)
            });
        } else {
            p.value = reading_.read(round); // unguarded cold read
            b_.charge(200);
        }
        if (use) {
            if (radio_)
                radio_->send(&p, sizeof(p));
            else
                b_.radioSend(&p, sizeof(p)); // unguarded transmission
            used_ += 1;
        } else {
            stale_ += 1;
        }
        rounds_ = static_cast<std::uint32_t>(round) + 1;
    }
    if (radio_)
        radio_->drainAll();
}

bool
SensorRelayApp::verify() const
{
    return rounds_.get() == opt_.rounds &&
           used_.get() + stale_.get() == opt_.rounds;
}

} // namespace ticsim::verify
