/**
 * @file
 * Single-writer counter words, C++17's stand-in for std::atomic_ref: a
 * statistic stays a plain integer field (its struct stays a copyable
 * value type). The owning thread bumps it with relaxedAdd, a relaxed
 * load and store and never an RMW (plain `mov`s on x86); any thread may
 * read it with relaxedLoad while the owner runs, without a data race.
 */
#ifndef NUMAWS_SUPPORT_RELAXED_H
#define NUMAWS_SUPPORT_RELAXED_H

namespace numaws {

template <typename T>
inline T
relaxedLoad(const T &word)
{
    return __atomic_load_n(&word, __ATOMIC_RELAXED);
}

template <typename T>
inline void
relaxedStore(T &word, T value)
{
    __atomic_store_n(&word, value, __ATOMIC_RELAXED);
}

/** Owner-only: with a single writer no increment is lost. */
template <typename T, typename U = T>
inline void
relaxedAdd(T &word, U by = 1)
{
    relaxedStore(word, static_cast<T>(relaxedLoad(word) + by));
}

} // namespace numaws

#endif // NUMAWS_SUPPORT_RELAXED_H
