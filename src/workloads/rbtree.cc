#include "workloads/rbtree.hh"

#include "common/logging.hh"

namespace ssp
{

RbTreeWorkload::RbTreeWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                               std::uint64_t key_space, KeyDist dist,
                               std::uint64_t seed)
    : Workload(be, alloc), keys_(dist, key_space, seed), dist_(dist)
{
}

void
RbTreeWorkload::setup()
{
    const Machine::SetupPhase phase(backend().machine());
    rootAddr_ = alloc_.allocate(sizeof(std::uint64_t), 8);
    const std::uint64_t zero = 0;
    backend().storeRaw(rootAddr_, &zero, sizeof(zero));
    const std::uint64_t prefill = keys_.keySpace() / 2;
    for (std::uint64_t i = 0; i < prefill; ++i)
        upsertOrDelete(0, keys_.next());
}

void
RbTreeWorkload::rotateLeft(CoreId c, Addr x)
{
    const Addr y = right(c, x);
    const Addr yl = left(c, y);
    setRight(c, x, yl);
    if (yl != 0)
        setParent(c, yl, x);
    const Addr xp = parent(c, x);
    setParentAndColor(c, y, xp, isRed(c, y));
    if (xp == 0)
        setRoot(c, y);
    else if (left(c, xp) == x)
        setLeft(c, xp, y);
    else
        setRight(c, xp, y);
    setLeft(c, y, x);
    setParentAndColor(c, x, y, isRed(c, x));
}

void
RbTreeWorkload::rotateRight(CoreId c, Addr x)
{
    const Addr y = left(c, x);
    const Addr yr = right(c, y);
    setLeft(c, x, yr);
    if (yr != 0)
        setParent(c, yr, x);
    const Addr xp = parent(c, x);
    setParentAndColor(c, y, xp, isRed(c, y));
    if (xp == 0)
        setRoot(c, y);
    else if (right(c, xp) == x)
        setRight(c, xp, y);
    else
        setLeft(c, xp, y);
    setRight(c, y, x);
    setParentAndColor(c, x, y, isRed(c, x));
}

void
RbTreeWorkload::insertFixup(CoreId c, Addr z)
{
    while (isRed(c, parent(c, z))) {
        Addr p = parent(c, z);
        Addr g = parent(c, p);
        if (p == left(c, g)) {
            Addr u = right(c, g);
            if (isRed(c, u)) {
                setColor(c, p, false);
                setColor(c, u, false);
                setColor(c, g, true);
                z = g;
            } else {
                if (z == right(c, p)) {
                    z = p;
                    rotateLeft(c, z);
                    p = parent(c, z);
                    g = parent(c, p);
                }
                setColor(c, p, false);
                setColor(c, g, true);
                rotateRight(c, g);
            }
        } else {
            Addr u = left(c, g);
            if (isRed(c, u)) {
                setColor(c, p, false);
                setColor(c, u, false);
                setColor(c, g, true);
                z = g;
            } else {
                if (z == left(c, p)) {
                    z = p;
                    rotateRight(c, z);
                    p = parent(c, z);
                    g = parent(c, p);
                }
                setColor(c, p, false);
                setColor(c, g, true);
                rotateLeft(c, g);
            }
        }
    }
    setColor(c, root(c), false);
}

void
RbTreeWorkload::transplant(CoreId c, Addr u, Addr v)
{
    const Addr up = parent(c, u);
    if (up == 0)
        setRoot(c, v);
    else if (u == left(c, up))
        setLeft(c, up, v);
    else
        setRight(c, up, v);
    if (v != 0)
        setParent(c, v, up);
}

Addr
RbTreeWorkload::minimum(CoreId c, Addr n)
{
    while (left(c, n) != 0)
        n = left(c, n);
    return n;
}

void
RbTreeWorkload::deleteNode(CoreId c, Addr z)
{
    Addr x = 0;
    Addr x_parent = 0;
    bool y_was_black;

    if (left(c, z) == 0) {
        x = right(c, z);
        x_parent = parent(c, z);
        y_was_black = !isRed(c, z);
        transplant(c, z, x);
    } else if (right(c, z) == 0) {
        x = left(c, z);
        x_parent = parent(c, z);
        y_was_black = !isRed(c, z);
        transplant(c, z, x);
    } else {
        const Addr y = minimum(c, right(c, z));
        y_was_black = !isRed(c, y);
        x = right(c, y);
        if (parent(c, y) == z) {
            x_parent = y;
        } else {
            x_parent = parent(c, y);
            transplant(c, y, x);
            setRight(c, y, right(c, z));
            setParent(c, right(c, y), y);
        }
        transplant(c, z, y);
        setLeft(c, y, left(c, z));
        setParent(c, left(c, y), y);
        setColor(c, y, isRed(c, z));
    }
    if (y_was_black)
        deleteFixup(c, x, x_parent);
}

void
RbTreeWorkload::deleteFixup(CoreId c, Addr x, Addr x_parent)
{
    while (x != root(c) && !isRed(c, x)) {
        if (x_parent == 0)
            break;
        if (x == left(c, x_parent)) {
            Addr w = right(c, x_parent);
            if (isRed(c, w)) {
                setColor(c, w, false);
                setColor(c, x_parent, true);
                rotateLeft(c, x_parent);
                w = right(c, x_parent);
            }
            if (!isRed(c, left(c, w)) && !isRed(c, right(c, w))) {
                setColor(c, w, true);
                x = x_parent;
                x_parent = parent(c, x);
            } else {
                if (!isRed(c, right(c, w))) {
                    setColor(c, left(c, w), false);
                    setColor(c, w, true);
                    rotateRight(c, w);
                    w = right(c, x_parent);
                }
                setColor(c, w, isRed(c, x_parent));
                setColor(c, x_parent, false);
                if (right(c, w) != 0)
                    setColor(c, right(c, w), false);
                rotateLeft(c, x_parent);
                x = root(c);
                x_parent = 0;
            }
        } else {
            Addr w = left(c, x_parent);
            if (isRed(c, w)) {
                setColor(c, w, false);
                setColor(c, x_parent, true);
                rotateRight(c, x_parent);
                w = left(c, x_parent);
            }
            if (!isRed(c, right(c, w)) && !isRed(c, left(c, w))) {
                setColor(c, w, true);
                x = x_parent;
                x_parent = parent(c, x);
            } else {
                if (!isRed(c, left(c, w))) {
                    setColor(c, right(c, w), false);
                    setColor(c, w, true);
                    rotateLeft(c, w);
                    w = left(c, x_parent);
                }
                setColor(c, w, isRed(c, x_parent));
                setColor(c, x_parent, false);
                if (left(c, w) != 0)
                    setColor(c, left(c, w), false);
                rotateRight(c, x_parent);
                x = root(c);
                x_parent = 0;
            }
        }
    }
    if (x != 0)
        setColor(c, x, false);
}

void
RbTreeWorkload::upsertOrDelete(CoreId c, std::uint64_t k)
{
    Addr victim = 0;
    std::uint64_t v = 0;
    runTx(c, [&] {
        victim = 0;

        // Search.
        Addr node = root(c);
        Addr last = 0;
        while (node != 0) {
            last = node;
            const std::uint64_t nk = key(c, node);
            if (nk == k)
                break;
            node = k < nk ? left(c, node) : right(c, node);
        }

        if (node != 0) {
            deleteNode(c, node);
            victim = node;
        } else {
            v = k * 7 + 3 + opCounter_;
            const Addr fresh = alloc_.allocate(kNodeSize, kLineSize);
            setKey(c, fresh, k);
            setVal(c, fresh, v);
            setLeft(c, fresh, 0);
            setRight(c, fresh, 0);
            setParentAndColor(c, fresh, last, true);
            if (last == 0)
                setRoot(c, fresh);
            else if (k < key(c, last))
                setLeft(c, last, fresh);
            else
                setRight(c, last, fresh);
            insertFixup(c, fresh);
        }
    });
    if (victim != 0) {
        alloc_.free(victim, kNodeSize);
        reference_.erase(k);
    } else {
        reference_[k] = v;
    }
    ++opCounter_;
}

void
RbTreeWorkload::runOp(CoreId core)
{
    upsertOrDelete(core, shardKey(core, keys_.next(), keys_.keySpace()));
}

int
RbTreeWorkload::checkSubtree(Addr n, std::uint64_t lo, std::uint64_t hi,
                             bool *ok)
{
    if (n == 0)
        return 1; // nil nodes are black
    const std::uint64_t k = heap_.raw64(n);
    if (k < lo || k > hi)
        *ok = false;
    if (rawRed(n) && (rawRed(rawLeft(n)) || rawRed(rawRight(n))))
        *ok = false;
    const int bl = checkSubtree(rawLeft(n), lo, k == 0 ? 0 : k - 1, ok);
    const int br = checkSubtree(rawRight(n), k + 1, hi, ok);
    if (bl != br)
        *ok = false;
    return bl + (rawRed(n) ? 0 : 1);
}

bool
RbTreeWorkload::invariantsHold()
{
    const Addr r = heap_.raw64(rootAddr_);
    if (r == 0)
        return reference_.empty();
    if (rawRed(r))
        return false;
    bool ok = true;
    checkSubtree(r, 0, ~std::uint64_t{0}, &ok);
    return ok;
}

bool
RbTreeWorkload::verify()
{
    // In-order traversal must match the reference map exactly.
    if (!invariantsHold())
        return false;
    std::uint64_t count = 0;
    // Iterative traversal using an explicit stack of addresses.
    std::vector<Addr> stack;
    Addr cur = heap_.raw64(rootAddr_);
    auto it = reference_.begin();
    while (cur != 0 || !stack.empty()) {
        while (cur != 0) {
            stack.push_back(cur);
            cur = rawLeft(cur);
        }
        cur = stack.back();
        stack.pop_back();
        if (it == reference_.end())
            return false;
        if (heap_.raw64(cur) != it->first ||
            heap_.raw64(cur + 8) != it->second) {
            return false;
        }
        ++it;
        ++count;
        cur = rawRight(cur);
    }
    return count == reference_.size();
}

} // namespace ssp
