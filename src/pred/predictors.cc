#include "pred/predictors.hh"

namespace trips::pred {

namespace {

unsigned
maskFor(unsigned entries)
{
    TRIPS_ASSERT(entries && (entries & (entries - 1)) == 0,
                 "table sizes must be powers of two");
    return entries - 1;
}

u64
mix(u64 v)
{
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 29;
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// TournamentPredictor
// ---------------------------------------------------------------------

TournamentPredictor::TournamentPredictor(unsigned local_entries,
                                         unsigned global_entries)
    : localMask(maskFor(local_entries)),
      globalMask(maskFor(global_entries)),
      localHist(local_entries, 0),
      localCtr(local_entries, 4),
      globalCtr(global_entries, 1),
      choiceCtr(global_entries, 2)
{}

bool
TournamentPredictor::predict(u64 pc) const
{
    unsigned li = static_cast<unsigned>(mix(pc)) & localMask;
    unsigned lh = localHist[li] & localMask;
    bool local_taken = localCtr[lh] >= 4;
    unsigned gi = (ghr ^ static_cast<unsigned>(mix(pc))) & globalMask;
    bool global_taken = globalCtr[gi] >= 2;
    bool use_global = choiceCtr[gi] >= 2;
    return use_global ? global_taken : local_taken;
}

void
TournamentPredictor::update(u64 pc, bool taken)
{
    unsigned li = static_cast<unsigned>(mix(pc)) & localMask;
    unsigned lh = localHist[li] & localMask;
    unsigned gi = (ghr ^ static_cast<unsigned>(mix(pc))) & globalMask;

    bool local_taken = localCtr[lh] >= 4;
    bool global_taken = globalCtr[gi] >= 2;
    if (local_taken != global_taken) {
        bool global_right = global_taken == taken;
        if (global_right && choiceCtr[gi] < 3)
            ++choiceCtr[gi];
        if (!global_right && choiceCtr[gi] > 0)
            --choiceCtr[gi];
    }
    if (taken) {
        if (localCtr[lh] < 7)
            ++localCtr[lh];
        if (globalCtr[gi] < 3)
            ++globalCtr[gi];
    } else {
        if (localCtr[lh] > 0)
            --localCtr[lh];
        if (globalCtr[gi] > 0)
            --globalCtr[gi];
    }
    localHist[li] = static_cast<u16>((localHist[li] << 1) | taken);
    ghr = (ghr << 1) | static_cast<unsigned>(taken);
}

// ---------------------------------------------------------------------
// SimpleBtb
// ---------------------------------------------------------------------

SimpleBtb::SimpleBtb(unsigned entries)
    : tags(entries, 0), targets(entries, 0), valid(entries, false),
      mask(maskFor(entries))
{}

bool
SimpleBtb::lookup(u64 key, u32 &target) const
{
    unsigned i = static_cast<unsigned>(mix(key)) & mask;
    if (!valid[i] || tags[i] != key)
        return false;
    target = targets[i];
    return true;
}

void
SimpleBtb::update(u64 key, u32 target)
{
    unsigned i = static_cast<unsigned>(mix(key)) & mask;
    tags[i] = key;
    targets[i] = target;
    valid[i] = true;
}

// ---------------------------------------------------------------------
// NextBlockPredictor
// ---------------------------------------------------------------------

NextBlockPredictor::NextBlockPredictor(const NextBlockConfig &cfg_)
    : cfg(cfg_),
      localHist(cfg.localEntries, 0),
      localExit(cfg.localPatternEntries, 0),
      localConf(cfg.localPatternEntries, 0),
      globalExit(cfg.globalEntries, 0),
      globalConf(cfg.globalEntries, 0),
      choice(cfg.choiceEntries, 2),
      btb(cfg.btbEntries),
      ctb(cfg.ctbEntries),
      btype(cfg.btypeEntries, 0),
      ras(cfg.rasEntries)
{}

unsigned
NextBlockPredictor::btypeIndex(u32 block, u8 exit) const
{
    return static_cast<unsigned>(mix((static_cast<u64>(block) << 3) |
                                     exit)) &
           (cfg.btypeEntries - 1);
}

u8
NextBlockPredictor::predictExit(u32 block) const
{
    unsigned li = static_cast<unsigned>(mix(block)) &
                  (cfg.localEntries - 1);
    unsigned lh = localHist[li] & (cfg.localPatternEntries - 1);
    unsigned gi = (ghr ^ static_cast<unsigned>(mix(block))) &
                  (cfg.globalEntries - 1);
    unsigned ci = gi & (cfg.choiceEntries - 1);
    bool use_global = choice[ci] >= 2;
    return use_global ? globalExit[gi] : localExit[lh];
}

NextBlockPredictor::Prediction
NextBlockPredictor::predict(u32 block)
{
    Prediction p;
    p.exit = predictExit(block);
    u64 key = (static_cast<u64>(block) << 3) | p.exit;
    switch (btype[btypeIndex(block, p.exit)]) {
      case 2: {  // return
        // Peek the RAS without popping (commit-time update pops).
        p.valid = ras.peek(p.nextBlock);
        break;
      }
      case 1:   // call
        p.valid = ctb.lookup(key, p.nextBlock);
        break;
      default:  // plain branch
        p.valid = btb.lookup(key, p.nextBlock);
        break;
    }
    return p;
}

void
NextBlockPredictor::trainExit(u32 block, u8 exit)
{
    unsigned li = static_cast<unsigned>(mix(block)) &
                  (cfg.localEntries - 1);
    unsigned lh = localHist[li] & (cfg.localPatternEntries - 1);
    unsigned gi = (ghr ^ static_cast<unsigned>(mix(block))) &
                  (cfg.globalEntries - 1);
    unsigned ci = gi & (cfg.choiceEntries - 1);

    bool local_right = localExit[lh] == exit;
    bool global_right = globalExit[gi] == exit;
    if (local_right != global_right) {
        if (global_right && choice[ci] < 3)
            ++choice[ci];
        if (!global_right && choice[ci] > 0)
            --choice[ci];
    }
    auto train = [&](std::vector<u8> &val, std::vector<u8> &conf,
                     unsigned idx) {
        if (val[idx] == exit) {
            if (conf[idx] < 3)
                ++conf[idx];
        } else if (conf[idx] > 0) {
            --conf[idx];
        } else {
            val[idx] = exit;
            conf[idx] = 1;
        }
    };
    train(localExit, localConf, lh);
    train(globalExit, globalConf, gi);

    localHist[li] = static_cast<u16>(((localHist[li] << 3) | exit) &
                                     0xffff);
    ghr = (ghr << 3) | exit;
}

void
NextBlockPredictor::update(u32 block, u8 exit, u32 next,
                           BranchKind kind, u32 push_val)
{
    Prediction p = predict(block);
    ++st.predictions;
    bool miss = !p.valid || p.nextBlock != next;
    if (p.exit != exit) {
        ++st.exitMispredicts;
        miss = true;
    } else if (miss) {
        ++st.targetMispredicts;
    }
    if (miss) {
        ++st.mispredictions;
        if (kind != BranchKind::Branch)
            ++st.callRetMispredicts;
    }

    trainExit(block, exit);
    u64 key = (static_cast<u64>(block) << 3) | exit;
    unsigned bi = btypeIndex(block, exit);
    switch (kind) {
      case BranchKind::Branch:
        btype[bi] = 0;
        btb.update(key, next);
        break;
      case BranchKind::Call:
        btype[bi] = 1;
        ctb.update(key, next);
        ras.push(push_val);
        break;
      case BranchKind::Ret: {
        btype[bi] = 2;
        u32 dummy;
        ras.pop(dummy);
        break;
      }
    }
}

// ---------------------------------------------------------------------
// DependencePredictor
// ---------------------------------------------------------------------

DependencePredictor::DependencePredictor(unsigned entries)
    : table(entries, 0), mask(maskFor(entries))
{}

bool
DependencePredictor::shouldWait(u64 load_key) const
{
    return table[static_cast<unsigned>(mix(load_key)) & mask] >= 2;
}

void
DependencePredictor::trainViolation(u64 load_key)
{
    auto &c = table[static_cast<unsigned>(mix(load_key)) & mask];
    c = 3;
}

void
DependencePredictor::decayTick()
{
    ++accesses;
    if ((accesses & 0xfff) == 0) {
        for (auto &c : table) {
            if (c > 0)
                --c;
        }
    }
}

} // namespace trips::pred
