// flock.hpp — umbrella header for the Flock reproduction.
//
// "Lock-Free Locks Revisited", Ben-David, Blelloch, Wei. PPoPP 2022.
//
// Quick tour (see README.md for the full story):
//
//   struct node {
//     flock::mutable_<node*> next;     // shared mutable -> logged inside locks
//     flock::write_once<bool> removed; // update-once location
//     Key k; Value v;                  // constants: plain fields
//     flock::lock lck;
//   };
//
//   bool ok = flock::with_epoch([&] {
//     return flock::try_lock(prev->lck, [=] {   // capture BY VALUE
//       if (prev->removed.load() || prev->next.load() != cur) return false;
//       auto* n = flock::allocate<node>(...);
//       prev->next = n;
//       return true;
//     });
//   });
//
//   flock::set_blocking(true);   // run the same code with blocking locks
#pragma once

#include "allocator.hpp"
#include "config.hpp"
#include "descriptor.hpp"
#include "epoch.hpp"
#include "lock.hpp"
#include "log.hpp"
#include "mutable.hpp"
#include "stats.hpp"
#include "tagged.hpp"
#include "threading.hpp"
#include "thunk.hpp"
#include "write_once.hpp"
