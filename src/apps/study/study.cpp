#include "study.hpp"

// ticsverify --source reports WAR spans on the swap/bubble/timekeeping
// programs below. These are the user-study listings, reproduced with their
// hazards intact (the swap triple-assignment is the canonical WAR
// teaching example), so the findings are expected and baselined in
// tools/ticslint.baseline.json.

namespace ticsim::apps::study {

// ---- program texts (the listings shown to study participants) --------

namespace {

constexpr const char *kSwapTics = R"(@nv int a = 3, b = 5;
void main() {
    a = a + b;
    b = a - b;
    a = a - b;
})";

constexpr const char *kSwapInk = R"(CHANNEL(int, a); CHANNEL(int, b);
TASK(t_add) {
    CH_WRITE(a, CH_READ(a) + CH_READ(b));
    NEXT(t_sub1);
}
TASK(t_sub1) {
    CH_WRITE(b, CH_READ(a) - CH_READ(b));
    NEXT(t_sub2);
}
TASK(t_sub2) {
    CH_WRITE(a, CH_READ(a) - CH_READ(b));
    NEXT(t_done);
})";

constexpr const char *kBubbleTics = R"(@nv int arr[N];
void main() {
    for (int i = 0; i < N - 1; i++) {
        for (int j = 0; j < N - 1 - i; j++) {
            if (arr[j] > arr[j + 1]) {
                int t = arr[j];
                arr[j] = arr[j + 1];
                arr[j + 1] = t;
            }
        }
    }
})";

constexpr const char *kBubbleInk = R"(CHANNEL(int[N], arr);
CHANNEL(int, i); CHANNEL(int, j); CHANNEL(int, swapped);
TASK(t_init) {
    CH_WRITE(i, 0); CH_WRITE(j, 0); CH_WRITE(swapped, 0);
    NEXT(t_inner);
}
TASK(t_inner) {
    int jj = CH_READ(j);
    int a[N]; CH_READ_ARR(arr, a);
    if (a[jj] > a[jj + 1]) {
        int t = a[jj];
        a[jj] = a[jj + 1];
        a[jj + 1] = t;
        CH_WRITE_ARR(arr, a);
        CH_WRITE(swapped, 1);
    }
    if (jj + 1 < N - 1 - CH_READ(i)) {
        CH_WRITE(j, jj + 1);
        NEXT(t_inner);
    }
    NEXT(t_outer);
}
TASK(t_outer) {
    if (CH_READ(i) + 1 < N - 1) {
        CH_WRITE(i, CH_READ(i) + 1);
        CH_WRITE(j, 0);
        NEXT(t_inner);
    }
    NEXT(t_done);
})";

constexpr const char *kTimekeepTics = R"(@expires_after=1s int reading;
void main() {
    while (1) {
        reading @= read_sensor();
        do_work();
        @expires(reading) {
            consume(reading);
        }
    }
})";

constexpr const char *kTimekeepInk = R"(CHANNEL(int, reading);
CHANNEL(time_t, ts);
TASK(t_sample) {
    CH_WRITE(reading, read_sensor());
    CH_WRITE(ts, hw_time());
    NEXT(t_work);
}
TASK(t_work) {
    do_work();
    NEXT(t_use);
}
TASK(t_use) {
    if (hw_time() - CH_READ(ts) < 1000) {
        consume(CH_READ(reading));
    }
    NEXT(t_sample);
})";

const std::array<ProgramText, 3> kTexts = {{
    {"Swap", kSwapTics, 1, 2, kSwapInk, 5, 2},
    {"Bubble", kBubbleTics, 1, 1, kBubbleInk, 7, 4},
    {"Timekeeping", kTimekeepTics, 1, 1, kTimekeepInk, 5, 2},
}};

} // namespace

const std::array<ProgramText, 3> &
programTexts()
{
    return kTexts;
}

// ---- runnable swap ---------------------------------------------------

SwapTics::SwapTics(board::Board &b, tics::TicsRuntime &rt, int a, int c)
    : bd_(b), rt_(rt), a_(b.nvram(), "swap.a", a), b_(b.nvram(), "swap.b", c)
{
}

void
SwapTics::main()
{
    board::FrameGuard fg(rt_, 16);
    rt_.triggerPoint();
    a_ = a_.get() + b_.get();
    rt_.triggerPoint();
    b_ = a_.get() - b_.get();
    rt_.triggerPoint();
    a_ = a_.get() - b_.get();
}

SwapInk::SwapInk(board::Board &b, taskrt::TaskRuntime &rt, int a, int c)
    : a_(rt, b.nvram(), "swap.a"), b_(rt, b.nvram(), "swap.b")
{
    const auto tSub2 = rt.addTask("t_sub2", [this]() -> taskrt::TaskId {
        a_.set(a_.get() - b_.get());
        return taskrt::kTaskDone;
    });
    const auto tSub1 =
        rt.addTask("t_sub1", [this, tSub2]() -> taskrt::TaskId {
            b_.set(a_.get() - b_.get());
            return tSub2;
        });
    const auto tAdd =
        rt.addTask("t_add", [this, tSub1]() -> taskrt::TaskId {
            a_.set(a_.get() + b_.get());
            return tSub1;
        });
    const auto tInit =
        rt.addTask("t_init", [this, a, c, tAdd]() -> taskrt::TaskId {
            a_.set(a);
            b_.set(c);
            return tAdd;
        });
    rt.setInitial(tInit);
}

// ---- runnable bubble sort ---------------------------------------------

BubbleTics::BubbleTics(board::Board &b, tics::TicsRuntime &rt,
                       const SortArray &input)
    : bd_(b), rt_(rt), arr_(b.nvram(), "bubble.arr")
{
    for (std::uint32_t k = 0; k < kSortN; ++k)
        arr_.raw()[k] = input[k];
}

void
BubbleTics::main()
{
    board::FrameGuard fg(rt_, 20);
    std::int32_t *a = arr_.raw();
    for (std::uint32_t i = 0; i + 1 < kSortN; ++i) {
        for (std::uint32_t j = 0; j + 1 < kSortN - i; ++j) {
            rt_.triggerPoint();
            bd_.charge(14);
            if (a[j] > a[j + 1]) {
                const std::int32_t t = a[j];
                rt_.store(&a[j], a[j + 1]);
                rt_.store(&a[j + 1], t);
            }
        }
    }
}

SortArray
BubbleTics::result() const
{
    SortArray out{};
    for (std::uint32_t k = 0; k < kSortN; ++k)
        out[k] = arr_.raw()[k];
    return out;
}

BubbleInk::BubbleInk(board::Board &b, taskrt::TaskRuntime &rt,
                     const SortArray &input)
    : bd_(b), rt_(rt), arr_(rt, b.nvram(), "bubble.arr"),
      i_(rt, b.nvram(), "bubble.i"), j_(rt, b.nvram(), "bubble.j"),
      swapped_(rt, b.nvram(), "bubble.swapped")
{
    tInit_ = rt_.addTask("t_init", [this, input]() -> taskrt::TaskId {
        arr_.set(input);
        i_.set(0);
        j_.set(0);
        return tInner_;
    });
    tInner_ = rt_.addTask("t_inner", [this]() -> taskrt::TaskId {
        bd_.charge(14);
        const std::uint32_t jj = j_.get();
        auto a = arr_.get();
        if (a[jj] > a[jj + 1]) {
            const std::int32_t t = a[jj];
            a[jj] = a[jj + 1];
            a[jj + 1] = t;
            arr_.set(a);
        }
        if (jj + 2 < kSortN - i_.get()) {
            j_.set(jj + 1);
            return tInner_;
        }
        return tOuter_;
    });
    tOuter_ = rt_.addTask("t_outer", [this]() -> taskrt::TaskId {
        if (i_.get() + 2 < kSortN) {
            i_.set(i_.get() + 1);
            j_.set(0);
            return tInner_;
        }
        return taskrt::kTaskDone;
    });
    rt_.setInitial(tInit_);
}

// ---- runnable timekeeping ---------------------------------------------

TimekeepTics::TimekeepTics(board::Board &b, tics::TicsRuntime &rt,
                           TimeNs lifetime)
    : bd_(b), rt_(rt), reading_(rt, b.nvram(), "tk.reading", lifetime),
      consumed_(b.nvram(), "tk.consumed"),
      discarded_(b.nvram(), "tk.discarded"),
      rounds_(b.nvram(), "tk.rounds")
{
}

void
TimekeepTics::main()
{
    board::FrameGuard fg(rt_, 20);
    constexpr std::uint32_t kRounds = 24;
    while (rounds_.get() < kRounds) {
        rt_.triggerPoint();
        const std::uint64_t round = rounds_.get();
        reading_.assignTimed(bd_.sampleTemp(), round);
        bd_.charge(4000); // do_work()
        const bool used = tics::expires(rt_, reading_, round, [&] {
            bd_.charge(300); // consume(reading)
        });
        if (used)
            consumed_ += 1;
        else
            discarded_ += 1;
        rounds_ = static_cast<std::uint32_t>(round) + 1;
    }
}

TimekeepInk::TimekeepInk(board::Board &b, taskrt::TaskRuntime &rt,
                         TimeNs lifetime)
    : bd_(b), rt_(rt), lifetime_(lifetime),
      reading_(rt, b.nvram(), "tk.reading"), ts_(rt, b.nvram(), "tk.ts"),
      consumed_(rt, b.nvram(), "tk.consumed"),
      discarded_(rt, b.nvram(), "tk.discarded"),
      rounds_(rt, b.nvram(), "tk.rounds")
{
    tInit_ = rt_.addTask("t_init", [this]() -> taskrt::TaskId {
        rounds_.set(0);
        consumed_.set(0);
        discarded_.set(0);
        return tSample_;
    });
    tSample_ = rt_.addTask("t_sample", [this]() -> taskrt::TaskId {
        reading_.set(bd_.sampleTemp());
        ts_.set(bd_.deviceNow());
        bd_.charge(4000); // do_work()
        return tUse_;
    });
    tUse_ = rt_.addTask("t_use", [this]() -> taskrt::TaskId {
        const TimeNs now = bd_.deviceNow();
        const TimeNs t = ts_.get();
        if (now >= t && now - t <= lifetime_) {
            bd_.charge(300);
            consumed_.set(consumed_.get() + 1);
        } else {
            discarded_.set(discarded_.get() + 1);
        }
        const std::uint32_t r = rounds_.get() + 1;
        rounds_.set(r);
        return r >= 24 ? taskrt::kTaskDone : tSample_;
    });
    rt_.setInitial(tInit_);
}

} // namespace ticsim::apps::study
