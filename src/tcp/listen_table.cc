#include "tcp/listen_table.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fsim
{

void
ListenTable::insert(Socket *sock)
{
    fsim_assert(sock->kind == SockKind::kListen);
    const ListenState &ls = *sock->listen;
    buckets_[key(ls.bindAddr, ls.bindPort)].push_back(sock);
    ++size_;
}

bool
ListenTable::remove(Socket *sock)
{
    const ListenState &ls = *sock->listen;
    auto it = buckets_.find(key(ls.bindAddr, ls.bindPort));
    if (it == buckets_.end())
        return false;
    auto &chain = it->second;
    auto pos = std::find(chain.begin(), chain.end(), sock);
    if (pos == chain.end())
        return false;
    chain.erase(pos);
    if (chain.empty())
        buckets_.erase(it);
    --size_;
    return true;
}

ListenTable::Lookup
ListenTable::lookup(IpAddr addr, Port port, Rng &rng) const
{
    Lookup result;
    const std::vector<Socket *> *chain = nullptr;

    auto it = buckets_.find(key(addr, port));
    if (it != buckets_.end() && !it->second.empty()) {
        chain = &it->second;
    } else {
        auto wild = buckets_.find(key(0, port));
        if (wild != buckets_.end() && !wild->second.empty())
            chain = &wild->second;
    }

    if (!chain)
        return result;

    result.chain = chain;
    if (chain->size() == 1) {
        result.sock = chain->front();
        result.walked = 1;
        return result;
    }

    // SO_REUSEPORT: walk the whole chain scoring each clone, then pick one
    // at random — this is what makes inet_lookup_listener O(n).
    std::size_t pick = rng.range(chain->size());
    result.sock = (*chain)[pick];
    result.walked = static_cast<int>(chain->size());
    return result;
}

Socket *
ListenTable::findExact(IpAddr addr, Port port) const
{
    auto it = buckets_.find(key(addr, port));
    if (it == buckets_.end() || it->second.empty())
        return nullptr;
    return it->second.front();
}

std::size_t
ListenTable::chainLength(IpAddr addr, Port port) const
{
    auto it = buckets_.find(key(addr, port));
    return it == buckets_.end() ? 0 : it->second.size();
}

std::vector<Socket *>
ListenTable::all() const
{
    std::vector<Socket *> out;
    out.reserve(size_);
    for (const auto &kv : buckets_)
        for (Socket *s : kv.second)
            out.push_back(s);
    return out;
}

} // namespace fsim
