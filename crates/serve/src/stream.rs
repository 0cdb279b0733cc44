//! Block chains hashed ahead on one thread and read on another.
//!
//! [`chain_stream`] splits a [`ChainHasher`] into a [`ChainFeed`], which
//! hashes a sequence of prompts, and a [`ChainStream`], which hands out their
//! chains as [`ChainView`]s in the same order. The cluster kernel runs the
//! feed on a helper thread over the requests in arrival order, so a first
//! attempt usually finds its chain already hashed.
//!
//! Each prompt is one record: how many leading blocks its chain shares with
//! the previous prompt's, its length in tokens, how many ids follow, then
//! those ids. The stream rebuilds each chain from the previous one, so only
//! the unshared suffix crosses threads. Records are written into a fixed
//! pool of `CHUNKS` chunks of `CHUNK_WORDS` words, all allocated by the
//! thread that calls [`chain_stream`]; a record starts a new chunk rather
//! than straddle two, unless it is longer than a chunk. Two bounded
//! channels carry the chunks: the feed sends each full one forward (one at
//! a time in the channel), the stream sends each read one back, and the
//! feed waits for a returned chunk rather than allocating one. A hang-up
//! ends either direction: the feed's once it has sent its last chunk (or
//! unwound), the stream's when it is dropped.
//!
//! The stream never waits for a record. A prompt whose record has not
//! arrived is hashed on the spot by the stream's own hasher, and the record
//! is skipped when it does arrive: the ids are the same whichever thread
//! computes them, so a preempted or starved feed costs the reader about
//! what hashing inline would. (It waits only for the rest of a record longer
//! than a chunk, which the feed is writing, and in [`ChainStream::drain`].)
//! Every hasher of a stream has room for prompts of up to `ROOM_FRAGMENTS`
//! fragments and `ROOM_BLOCKS` blocks from the start, so within that, which
//! thread hashes a prompt never changes what is allocated.
//!
//! Dropping the stream stops the feed at its next wait, and a feed that
//! ends or unwinds leaves the stream hashing for itself.

use crate::cache::{ChainHasher, ChainView};
use llmqo_tokenizer::TokenId;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Words per chunk.
const CHUNK_WORDS: usize = 1024;
/// Chunks in circulation: one being filled, one sent, one being read.
const CHUNKS: usize = 3;
/// Words of a record before its ids.
const HEADER_WORDS: usize = 3;
/// Fragments per prompt every hasher of a stream has room for.
const ROOM_FRAGMENTS: usize = 64;
/// Full blocks per chain every hasher of a stream has room for (8 192
/// tokens at the default 16-token blocks).
const ROOM_BLOCKS: usize = 512;

/// Splits a hasher into the two halves of a stream of chains. Both hash as
/// `hasher` would — its block size, and the root salt of the thread that
/// built it (see [`with_root_salt`](crate::with_root_salt)) — so the feed
/// may run anywhere.
pub fn chain_stream(hasher: &ChainHasher) -> (ChainFeed, ChainStream) {
    let (full_tx, full_rx) = sync_channel(1);
    let (empty_tx, empty_rx) = sync_channel(CHUNKS);
    // The feed fills one chunk; the rest wait for it on the way back. The
    // send cannot fail: the receiver is here, and the channel fits the pool.
    for _ in 1..CHUNKS {
        drop(empty_tx.send(Vec::with_capacity(CHUNK_WORDS)));
    }
    let feed = ChainFeed {
        hasher: hasher.with_room(ROOM_FRAGMENTS, ROOM_BLOCKS),
        sink: Sink {
            chunk: Vec::with_capacity(CHUNK_WORDS),
            full: full_tx,
            empty: empty_rx,
        },
    };
    let stream = ChainStream {
        full: full_rx,
        empty: empty_tx,
        chunk: Vec::new(),
        pos: 0,
        blocks: Vec::with_capacity(ROOM_BLOCKS),
        prompt_tokens: 0,
        at: None,
        read: 0,
        fallback: hasher.with_room(ROOM_FRAGMENTS, ROOM_BLOCKS),
    };
    (feed, stream)
}

/// The hashing half of a [`chain_stream`].
#[derive(Debug)]
pub struct ChainFeed {
    hasher: ChainHasher,
    sink: Sink,
}

impl ChainFeed {
    /// Hashes `prompts` in order, one record each, until they run out or
    /// the [`ChainStream`] is dropped, and returns the hasher (its token
    /// counts cover every prompt it hashed) once the stream is dropped.
    /// Waiting for that keeps the feed's frees — of its chunks, its channel
    /// ends and whatever ran it — inside the reader's drop of the stream and
    /// what follows, so the threads' timing does not move the process's
    /// peak live memory.
    pub fn run<'a, P>(mut self, prompts: impl IntoIterator<Item = P>) -> ChainHasher
    where
        P: IntoIterator<Item = &'a Arc<[TokenId]>>,
    {
        for prompt in prompts {
            let (shared, chain) = self.hasher.chain_resumed(prompt);
            let new = &chain.blocks()[shared..];
            let header = [shared, chain.prompt_tokens(), new.len()].map(|w| w as u64);
            if self.sink.record(&header, new).is_err() {
                return self.hasher;
            }
        }
        self.sink.finish();
        self.hasher
    }
}

/// The stream was dropped.
struct Closed;

/// The feed's ends of the channels. Dropping it, unwinding included, hangs
/// up on the stream.
#[derive(Debug)]
struct Sink {
    /// The chunk being filled.
    chunk: Vec<u64>,
    /// Full chunks, to the stream.
    full: SyncSender<Vec<u64>>,
    /// Read chunks, back from the stream.
    empty: Receiver<Vec<u64>>,
}

impl Sink {
    /// Appends one record, in a fresh chunk if it does not fit in this one
    /// (a record longer than a chunk spans several).
    fn record(&mut self, header: &[u64; HEADER_WORDS], ids: &[u64]) -> Result<(), Closed> {
        let len = HEADER_WORDS + ids.len();
        if self.chunk.len() + len > CHUNK_WORDS && !self.chunk.is_empty() {
            self.post()?;
        }
        for mut words in [&header[..], ids] {
            while !words.is_empty() {
                if self.chunk.len() == CHUNK_WORDS {
                    self.post()?;
                }
                let room = CHUNK_WORDS - self.chunk.len();
                let (now, rest) = words.split_at(words.len().min(room));
                self.chunk.extend_from_slice(now);
                words = rest;
            }
        }
        Ok(())
    }

    /// Sends the full chunk, then takes a returned one in its place.
    fn post(&mut self) -> Result<(), Closed> {
        let full = std::mem::take(&mut self.chunk);
        self.full.send(full).map_err(|_| Closed)?;
        self.chunk = self.empty.recv().map_err(|_| Closed)?;
        Ok(())
    }

    /// Sends the last chunk and hangs up, then waits for the stream to hang
    /// up too, keeping the chunks it hands back meanwhile: nothing is freed
    /// here before the stream is dropped.
    fn finish(self) {
        let Sink { chunk, full, empty } = self;
        if !chunk.is_empty() {
            // Fails only if the stream is gone, and then nobody reads it.
            drop(full.send(chunk));
        }
        drop(full);
        let mut kept: [Vec<u64>; CHUNKS] = Default::default();
        for slot in &mut kept {
            match empty.recv() {
                Ok(chunk) => *slot = chunk,
                Err(_) => return,
            }
        }
        // The whole pool is back, so this returns at the hang-up.
        drop(empty.recv());
    }
}

/// The reading half of a [`chain_stream`]: the chains of the fed prompts,
/// in feed order.
#[derive(Debug)]
pub struct ChainStream {
    /// Full chunks, from the feed.
    full: Receiver<Vec<u64>>,
    /// Read chunks, back to the feed.
    empty: SyncSender<Vec<u64>>,
    /// The chunk being read, and the read position in it.
    chunk: Vec<u64>,
    pos: usize,
    /// The chain of the prompt at position `at`.
    blocks: Vec<u64>,
    prompt_tokens: usize,
    at: Option<usize>,
    /// Records taken off the channel so far.
    read: usize,
    /// Hashes the prompts whose records have not arrived when asked for.
    fallback: ChainHasher,
}

impl ChainStream {
    /// The chain of `prompt`, fed at position `rank` (from 0; ask in
    /// increasing order): rebuilt from the feed's record if it has arrived,
    /// else hashed here. Records of earlier positions not asked for are
    /// read past.
    pub fn chain<'a>(
        &mut self,
        rank: usize,
        prompt: impl IntoIterator<Item = &'a Arc<[TokenId]>>,
    ) -> ChainView<'_> {
        debug_assert!(self.at.is_none_or(|at| at <= rank), "ranks out of order");
        while self.read <= rank && self.take_record() {}
        if self.at != Some(rank) {
            let chain = self.fallback.chain(prompt);
            self.blocks.clear();
            self.blocks.extend_from_slice(chain.blocks());
            self.prompt_tokens = chain.prompt_tokens();
            self.at = Some(rank);
        }
        ChainView::new(&self.blocks, self.prompt_tokens)
    }

    /// Reads to the end of the feed, waiting for it, so that it hashes every
    /// prompt it was given.
    pub fn drain(mut self) {
        self.pos = self.chunk.len();
        while self.refill(true) {
            self.pos = self.chunk.len();
        }
    }

    /// Takes the next record off the channel if it has arrived: rebuilds
    /// its chain in `blocks`, or skips it if `blocks` already holds a later
    /// prompt's. Waits only for the rest of a record longer than a chunk,
    /// which the feed is writing.
    fn take_record(&mut self) -> bool {
        if self.pos == self.chunk.len() && !self.refill(false) {
            return false;
        }
        let rank = self.read;
        self.read += 1;
        let header = &self.chunk[self.pos..self.pos + HEADER_WORDS];
        let [shared, tokens, mut new] = [0, 1, 2].map(|i| header[i] as usize);
        self.pos += HEADER_WORDS;
        // `at` never trails the records read by more than one.
        let apply = self.at.is_none_or(|at| at < rank);
        if apply {
            self.blocks.truncate(shared);
            self.prompt_tokens = tokens;
            self.at = Some(rank);
        }
        loop {
            let take = new.min(self.chunk.len() - self.pos);
            if apply {
                self.blocks
                    .extend_from_slice(&self.chunk[self.pos..self.pos + take]);
            }
            self.pos += take;
            new -= take;
            if new == 0 {
                return true;
            }
            if !self.refill(true) {
                // The feed unwound mid-record; no record follows.
                self.at = None;
                return false;
            }
        }
    }

    /// Sends the chunk read out back to the feed and takes the next full
    /// one, waiting for it if `wait`.
    fn refill(&mut self, wait: bool) -> bool {
        let mut used = std::mem::take(&mut self.chunk);
        self.pos = 0;
        if used.capacity() > 0 {
            used.clear();
            // Never blocks: the channel holds the whole pool. Fails only
            // once the feed is gone, and then nobody needs the chunk.
            drop(self.empty.send(used));
        }
        let next = if wait {
            self.full.recv().ok()
        } else {
            self.full.try_recv().ok()
        };
        match next {
            Some(chunk) => {
                self.chunk = chunk;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{with_root_salt, BlockChain};

    fn frag(salt: u32, len: u32) -> Arc<[TokenId]> {
        (0..len).map(|j| salt * 100_000 + j).collect()
    }

    /// Prompts of an instruction and a group prefix, shared as pointers,
    /// and a unique tail: consecutive chains share leading blocks.
    fn prompts(n: u32, tail: u32) -> Vec<Vec<Arc<[TokenId]>>> {
        let instruction = frag(0, 37);
        let groups: Vec<_> = (1..5).map(|g| frag(g, 50)).collect();
        (0..n)
            .map(|i| {
                let group = groups[(i / 7) as usize % groups.len()].clone();
                vec![instruction.clone(), group, frag(10 + i, tail)]
            })
            .collect()
    }

    fn defined(prompt: &[Arc<[TokenId]>]) -> BlockChain {
        BlockChain::from_fragments(16, prompt.iter().map(|f| &f[..]))
    }

    fn hasher() -> ChainHasher {
        ChainHasher::new(16, true)
    }

    /// Waits until the records up to `rank` have been taken off the
    /// channel, so that `chain(rank, ..)` reads rather than hashes.
    fn arrived(stream: &mut ChainStream, rank: usize) {
        while stream.read <= rank {
            if !stream.take_record() {
                std::thread::yield_now();
            }
        }
    }

    /// Prompt tokens the stream hashed itself.
    fn hashed_here(stream: &ChainStream) -> u64 {
        stream.fallback.tokens_hashed() + stream.fallback.tokens_reused()
    }

    fn tokens(prompts: &[Vec<Arc<[TokenId]>>]) -> u64 {
        prompts.iter().flatten().map(|f| f.len() as u64).sum()
    }

    #[test]
    fn records_rebuild_the_chains_the_feed_hashed() {
        // Long tails make records fill chunks; 40 000 tokens make every
        // record span several.
        for tail in [5, 70, 40_000] {
            let prompts = prompts(300, tail);
            let (feed, mut stream) = chain_stream(&hasher());
            let fed = std::thread::scope(|s| {
                let helper = s.spawn(|| feed.run(&prompts));
                for (rank, prompt) in prompts.iter().enumerate() {
                    arrived(&mut stream, rank);
                    let chain = stream.chain(rank, prompt);
                    assert_eq!(BlockChain::from(chain), defined(prompt), "rank {rank}");
                }
                assert_eq!(hashed_here(&stream), 0, "every chain came from a record");
                stream.drain();
                helper.join().expect("the feed does not panic")
            });
            assert_eq!(fed.tokens_hashed() + fed.tokens_reused(), tokens(&prompts));
            assert!(fed.tokens_reused() > 0);
        }
    }

    #[test]
    fn records_read_past_still_carry_the_chain_forward() {
        let prompts = prompts(200, 70);
        let (feed, mut stream) = chain_stream(&hasher());
        std::thread::scope(|s| {
            s.spawn(|| feed.run(&prompts));
            for rank in (0..200).filter(|r| r % 3 == 2 || *r == 199) {
                arrived(&mut stream, rank);
                let chain = stream.chain(rank, &prompts[rank]);
                assert_eq!(BlockChain::from(chain), defined(&prompts[rank]));
            }
            assert_eq!(hashed_here(&stream), 0);
            // The feed returns once the stream is gone.
            drop(stream);
        });
    }

    #[test]
    fn a_stream_ahead_of_its_feed_hashes_for_itself_and_skips_the_records() {
        let prompts = prompts(400, 70);
        let (feed, mut stream) = chain_stream(&hasher());
        // The first 50 are asked for before the feed starts.
        for (rank, prompt) in prompts.iter().enumerate().take(50) {
            let chain = stream.chain(rank, prompt);
            assert_eq!(BlockChain::from(chain), defined(prompt), "rank {rank}");
        }
        assert_eq!(hashed_here(&stream), tokens(&prompts[..50]));
        std::thread::scope(|s| {
            s.spawn(|| feed.run(&prompts));
            // Then alternately waited for, and asked for at once.
            for (rank, prompt) in prompts.iter().enumerate().skip(50) {
                if rank % 40 < 20 {
                    arrived(&mut stream, rank);
                }
                let chain = stream.chain(rank, prompt);
                assert_eq!(BlockChain::from(chain), defined(prompt), "rank {rank}");
            }
            drop(stream);
        });
    }

    #[test]
    fn a_dropped_stream_stops_the_feed_and_a_drained_one_lets_it_finish() {
        let prompts = prompts(2_000, 70);
        for drain in [false, true] {
            let (feed, mut stream) = chain_stream(&hasher());
            let fed = std::thread::scope(|s| {
                let helper = s.spawn(|| feed.run(&prompts));
                arrived(&mut stream, 10);
                if drain {
                    stream.drain();
                } else {
                    drop(stream);
                }
                helper.join().expect("the feed does not panic")
            });
            let hashed = fed.tokens_hashed() + fed.tokens_reused();
            // Undrained, the feed stops with the pool full: far short of
            // the 2 000 prompts.
            assert_eq!(hashed == tokens(&prompts), drain, "{hashed}");
        }
    }

    #[test]
    fn a_feed_that_ends_unrun_leaves_the_stream_hashing() {
        // What a feed that unwinds does too: its sink's drop ends the stream.
        let prompts = prompts(20, 70);
        let (feed, mut stream) = chain_stream(&hasher());
        drop(feed);
        for (rank, prompt) in prompts.iter().enumerate() {
            assert_eq!(
                BlockChain::from(stream.chain(rank, prompt)),
                defined(prompt)
            );
        }
        stream.drain();
    }

    #[test]
    fn both_halves_hash_under_the_salt_of_the_thread_that_built_the_hasher() {
        let prompts = prompts(50, 70);
        let salt = 0x5eed;
        let (feed, mut stream) = with_root_salt(salt, || chain_stream(&hasher()));
        std::thread::scope(|s| {
            // Rank 0 is hashed by the stream, on this thread, outside the
            // salt's scope; the rest come from the feed's thread.
            assert_eq!(
                BlockChain::from(stream.chain(0, &prompts[0])),
                with_root_salt(salt, || defined(&prompts[0]))
            );
            s.spawn(|| feed.run(&prompts));
            for (rank, prompt) in prompts.iter().enumerate().skip(1) {
                arrived(&mut stream, rank);
                let chain = BlockChain::from(stream.chain(rank, prompt));
                assert_eq!(chain, with_root_salt(salt, || defined(prompt)));
                assert_ne!(chain, defined(prompt));
            }
            drop(stream);
        });
    }
}
