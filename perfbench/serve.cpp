/**
 * @file
 * The `serve` workload: the zac_serve daemon as a child process (two
 * workers, a 128-entry result cache) driven over HTTP by this process
 * with at most four threads and connections.
 *
 * Each job is one `POST /compile` body line drawn from the 17 paper
 * circuits with a per-job seed. Two in every five jobs repeat a small
 * hot set of keys (the cache serves them); the rest carry fresh keys
 * (a real compile runs), so misses run beside hits. Phases:
 *
 *  1. set-up: spawn the daemon until the first 200 from /healthz
 *     (median over spawns spread through the run);
 *  2. warm-up: the hot keys once each, then the closed loop for a
 *     second, untimed;
 *  3. open loop: one job per POST at a fixed offered rate, each timed
 *     from its scheduled send time to its last response byte;
 *  4. closed loop: four connections back to back, four jobs per POST
 *     (jobs per second); phases 3 and 4 alternate in ten blocks each;
 *  5. counters from /healthz, VmHWM from /proc, SIGTERM drain;
 *  6. verification: every served record byte-compared with the record
 *     built from an offline compile of the same (circuit, seed).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "arch/presets.hpp"
#include "bench.hpp"
#include "circuit/generators.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "net/socket.hpp"
#include "service/manifest.hpp"
#include "service/protocol.hpp"

extern char **environ;

namespace perfbench
{

namespace
{

constexpr double kOpenLoopRate = 100.0; ///< offered requests per second
constexpr int kBlocks = 10; ///< open/closed phase pairs per run
/** Share of the run spent in the open loop. The closed loop's many
 *  fresh keys dominate the verification time after the run. */
constexpr double kOpenShare = 0.7;
constexpr int kThreads = 4;             ///< generator threads/connections
/** Job lines per closed-loop POST: four connections keep up to 16 jobs
 *  in flight, so the two workers never wait on a round trip and the
 *  closed loop measures the daemon's capacity. */
constexpr int kClosedBatch = 4;
/** Every group of kGroup consecutive requests holds kGroupHot hot keys
 *  (40%), in shuffled positions. Below one half, so the median latency
 *  falls inside the misses; exact per group, so the hit share does not
 *  vary from run to run. */
constexpr int kGroup = 5;
constexpr int kGroupHot = 2;
constexpr int kFreshPasses = 8; ///< fresh passes compiled offline first
constexpr double kWarmupSeconds = 1.0; ///< untimed closed loop first
/** An open-loop request sleeps until this long before its send time
 *  and spins the rest, so the generator's wake-up delay stays out of
 *  the measured latency. */
constexpr auto kSpin = std::chrono::milliseconds(1);

/** One request key: a paper circuit and the job's seed. */
struct Key
{
    std::string circuit;
    std::uint64_t seed = 0;
    bool hot = false;
    std::string label() const
    {
        return circuit + "@" + std::to_string(seed);
    }
};

/**
 * The deterministic request stream of one run: request i always gets
 * the same key for a given workload seed. The hot set holds one key per
 * paper circuit. Hot and fresh keys each walk the 17 paper circuits in
 * passes (a new shuffle each pass; fresh keys get new seeds), so hits
 * and misses cover the same circuit mix on every seed.
 */
class KeyStream
{
  public:
    explicit KeyStream(std::uint64_t seed) : rng_(seed)
    {
        for (const auto &rec : zac::bench_circuits::paperBenchmarkRecords())
            names_.push_back(rec.name);
        for (const std::string &c : names_)
            hot_.push_back({c, nextSeed(), true});
    }

    /** A second stream over the same hot set, with its own fresh keys. */
    KeyStream(std::uint64_t seed, const KeyStream &other)
        : rng_(seed), names_(other.names_), hot_(other.hot_)
    {
    }

    const std::vector<Key> &hot() const { return hot_; }
    const std::vector<std::string> &names() const { return names_; }

    /** Key of request @p i (thread-safe; extends the stream lazily). */
    Key
    at(std::size_t i)
    {
        std::lock_guard<std::mutex> lock(mu_);
        while (stream_.size() <= i)
            drawGroup();
        return stream_[i];
    }

    /** The first @p passes fresh passes, in pass order. */
    std::vector<std::vector<Key>>
    freshPasses(std::size_t passes)
    {
        std::lock_guard<std::mutex> lock(mu_);
        while (fresh_.size() < passes * names_.size())
            refill();
        std::vector<std::vector<Key>> out(passes);
        for (std::size_t i = 0; i < passes * names_.size(); ++i)
            out[i / names_.size()].push_back(fresh_[i]);
        return out;
    }

  private:
    std::uint64_t nextSeed() { return 1 + rng_() % (1ull << 40); }

    void
    refill()
    {
        std::vector<std::string> order = names_;
        std::shuffle(order.begin(), order.end(), rng_);
        for (const std::string &c : order)
            fresh_.push_back({c, nextSeed(), false});
    }

    Key
    nextHot()
    {
        if (next_hot_ == hot_order_.size()) {
            hot_order_ = hot_;
            std::shuffle(hot_order_.begin(), hot_order_.end(), rng_);
            next_hot_ = 0;
        }
        return hot_order_[next_hot_++];
    }

    Key
    nextFresh()
    {
        if (next_fresh_ == fresh_.size())
            refill();
        return fresh_[next_fresh_++];
    }

    void
    drawGroup()
    {
        std::vector<Key> group;
        for (int j = 0; j < kGroup; ++j)
            group.push_back(j < kGroupHot ? nextHot() : nextFresh());
        std::shuffle(group.begin(), group.end(), rng_);
        stream_.insert(stream_.end(), group.begin(), group.end());
    }

    std::mutex mu_;
    std::mt19937_64 rng_;
    std::vector<std::string> names_;
    std::vector<Key> hot_;
    std::vector<Key> hot_order_;
    std::size_t next_hot_ = 0;
    std::vector<Key> fresh_;
    std::size_t next_fresh_ = 0;
    std::vector<Key> stream_;
};

/** What the client saw of one request. */
struct Sample
{
    Key key;
    bool open_loop = false;
    Clock::time_point due, connect, sent, first_byte, last_byte;
    int status = 0;
    bool io_ok = false;
    /** Whole response, headers included, shared over its records. */
    std::size_t bytes = 0;
    /** The record's bytes before its "zair" member; the program bytes
     *  after it are kept as a digest. */
    std::string head;
    std::uint64_t zair_digest = 0;
    std::size_t zair_size = 0;
    int inflight = 0;            ///< open loop: requests due, not done
    double phase = 0.0;          ///< open loop: position in its block
};

std::string
requestBytes(const Sample *batch, std::size_t n)
{
    std::string body;
    for (std::size_t i = 0; i < n; ++i) {
        const Key &k = batch[i].key;
        body += zac::json::Value(
                    zac::json::Object{
                        {"circuit", k.circuit},
                        {"label", k.label()},
                        {"seed", static_cast<std::int64_t>(k.seed)}})
                    .dump() +
                "\n";
    }
    return "POST /compile HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/x-ndjson\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

/**
 * One blocking POST with one job line per sample of @p batch. Every
 * sample gets the exchange's timings; each gets the head and program
 * digest of the result record whose label is its key's.
 */
void
exchange(std::uint16_t port, Sample *batch, std::size_t n)
{
    const std::string request = requestBytes(batch, n);
    Clock::time_point connect = Clock::now(), sent{}, first_byte{};
    std::string resp, error;
    try {
        zac::net::Fd fd = zac::net::tcpConnect("127.0.0.1", port, 30.0);
        if (!zac::net::sendAll(fd.get(), request.data(), request.size()))
            throw std::runtime_error("send failed");
        sent = Clock::now();
        char buf[65536];
        for (;;) {
            const ssize_t got = ::recv(fd.get(), buf, sizeof(buf), 0);
            if (got < 0)
                throw std::runtime_error("recv failed");
            if (got == 0)
                break;
            if (resp.empty())
                first_byte = Clock::now();
            resp.append(buf, static_cast<std::size_t>(got));
        }
    } catch (const std::exception &e) {
        error = e.what();
    }
    const Clock::time_point last_byte = Clock::now();
    const std::size_t sp = resp.find(' ');
    const std::size_t hdr_end = resp.find("\r\n\r\n");
    if (error.empty() &&
        (sp == std::string::npos || hdr_end == std::string::npos))
        error = "malformed response";
    const int status =
        error.empty() ? std::atoi(resp.c_str() + sp + 1) : 0;
    for (std::size_t i = 0; i < n; ++i) {
        Sample &s = batch[i];
        s.connect = connect;
        s.sent = sent;
        s.first_byte = first_byte;
        s.last_byte = last_byte;
        s.status = status;
        s.bytes = resp.size() / n;
        s.head = error.empty() ? "no result record for this line" : error;
    }
    if (!error.empty())
        return;
    // Each result line is <head>,"zair":<program>}\n, and the head
    // holds "circuit":"<label>".
    const std::string_view sep = ",\"zair\":";
    const std::string_view tag = "\"circuit\":\"";
    std::string_view body = std::string_view(resp).substr(hdr_end + 4);
    while (!body.empty()) {
        const std::size_t eol = body.find('\n');
        const std::string_view line = body.substr(0, eol);
        body = eol == std::string_view::npos ? std::string_view()
                                             : body.substr(eol + 1);
        const std::size_t z = line.find(sep);
        const std::size_t c = line.find(tag);
        if (z == std::string_view::npos || c == std::string_view::npos ||
            !line.ends_with("}")) {
            for (std::size_t i = 0; i < n; ++i)
                if (!batch[i].io_ok)
                    batch[i].head = "not a result record: " +
                                    std::string(line.substr(0, 200));
            continue;
        }
        const std::size_t c0 = c + tag.size();
        const std::string_view label =
            line.substr(c0, line.find('"', c0) - c0);
        for (std::size_t i = 0; i < n; ++i) {
            Sample &s = batch[i];
            if (s.io_ok || s.key.label() != label)
                continue;
            s.head = std::string(line.substr(0, z));
            const std::string_view zair =
                line.substr(z + sep.size(), line.size() - z - sep.size() - 1);
            s.zair_digest = zac::fnv1a(zair);
            s.zair_size = zair.size();
            s.io_ok = true;
            break;
        }
    }
}

std::string
httpGet(std::uint16_t port, const std::string &path, int &status)
{
    zac::net::Fd fd = zac::net::tcpConnect("127.0.0.1", port, 10.0);
    const std::string req =
        "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (!zac::net::sendAll(fd.get(), req.data(), req.size()))
        throw std::runtime_error("healthz: send failed");
    std::string resp;
    zac::net::recvUntilClose(fd.get(), resp);
    const std::size_t sp = resp.find(' ');
    const std::size_t hdr_end = resp.find("\r\n\r\n");
    status = sp == std::string::npos ? 0 : std::atoi(resp.c_str() + sp + 1);
    return hdr_end == std::string::npos ? "" : resp.substr(hdr_end + 4);
}

/**
 * The daemon child process. The destructor kills and reaps a child
 * that is still running, so no exit path leaves it behind.
 */
class Daemon
{
  public:
    explicit Daemon(const std::string &bin)
    {
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null",
                                         O_RDONLY, 0);
        std::vector<std::string> args = {
            bin,       "--host", "127.0.0.1", "--port", "0",
            "--workers", "2",    "--cache",   "128"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        out_ = zac::net::Fd(fds[0]);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot spawn " + bin);
        }
        // "zac_serve: listening on HOST:PORT"
        std::string line;
        char c;
        while (::read(out_.get(), &c, 1) == 1 && c != '\n')
            line.push_back(c);
        const std::size_t colon = line.rfind(':');
        if (line.find("listening on") == std::string::npos ||
            colon == std::string::npos) {
            kill();
            throw std::runtime_error("zac_serve did not start: " + line);
        }
        port_ = static_cast<std::uint16_t>(
            std::atoi(line.c_str() + colon + 1));
    }

    ~Daemon() { kill(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::uint16_t port() const { return port_; }

    /** Poll /healthz until it answers 200. */
    void
    waitHealthy() const
    {
        const Clock::time_point t0 = Clock::now();
        for (;;) {
            int status = 0;
            try {
                httpGet(port_, "/healthz", status);
            } catch (const std::exception &) {
            }
            if (status == 200)
                return;
            if (secondsBetween(t0, Clock::now()) > 30.0)
                throw std::runtime_error("zac_serve never became healthy");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    /** Peak resident set (VmHWM) of the daemon, MiB. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::atof(line.c_str() + 6) / 1024.0; // kB
        throw std::runtime_error("no VmHWM for zac_serve");
    }

    /** SIGTERM drain; @return the exit status (-1 if killed). */
    int
    stop()
    {
        ::kill(pid_, SIGTERM);
        const Clock::time_point t0 = Clock::now();
        int st = 0;
        while (::waitpid(pid_, &st, WNOHANG) == 0) {
            if (secondsBetween(t0, Clock::now()) > 60.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &st, 0);
                pid_ = -1;
                return -1;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    }

  private:
    void
    kill()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
    }

    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    zac::net::Fd out_;
};

double
ms(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

zac::json::Value
headJson(const Sample &s)
{
    return zac::json::parse(s.head + "}");
}

/** Fields of a served record head needed to rebuild it offline. */
zac::service::JobRecord
recordFromHead(const zac::json::Value &h)
{
    zac::service::JobRecord r;
    r.job_id = static_cast<std::uint64_t>(h.at("job_id").asInt());
    r.name = h.at("circuit").asString();
    r.status = zac::service::JobStatus::Done;
    r.cache_hit = h.at("cache_hit").asBool();
    r.attempts = static_cast<int>(h.at("attempts").asInt());
    r.queue_seconds = h.at("queue_seconds").asDouble();
    r.service_seconds = h.at("service_seconds").asDouble();
    return r;
}

} // namespace

void
runServe(const Options &opt, Result &res)
{
    // 1. Set-up: spawn until healthy. More spawns, of short-lived
    //    extra daemons, are timed between the load blocks below, so the
    //    set-up median samples the whole run.
    std::vector<double> setup_s;
    const auto spawn = [&] {
        const Clock::time_point t0 = Clock::now();
        auto d = std::make_unique<Daemon>(opt.serve_bin);
        d->waitHealthy();
        setup_s.push_back(secondsBetween(t0, Clock::now()));
        return d;
    };
    const auto spawnExtra = [&] {
        if (spawn()->stop() != 0)
            res.fail("an extra zac_serve instance did not drain cleanly");
    };
    spawnExtra();
    std::unique_ptr<Daemon> daemon = spawn();
    const std::uint16_t port = daemon->port();

    // 2. Warm-up: fill the cache with the hot keys, then run the closed
    //    loop untimed so the cache is full and the daemon's allocator is
    //    warm before the first timed block. The open loop's requests come
    //    from one key stream and the closed loop's from a second, so the
    //    open loop sends the same keys on every run of a seed however
    //    fast the closed loop goes.
    KeyStream keys(opt.seed);
    KeyStream closed_keys(opt.seed ^ 0x9e3779b97f4a7c15ull, keys);
    for (const Key &k : keys.hot()) {
        Sample s;
        s.key = k;
        exchange(port, &s, 1);
        if (!s.io_ok || s.status != 200)
            throw std::runtime_error("warm-up request failed: " + s.head);
    }
    const auto runThreads = [](const std::function<void(int)> &fn) {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back(fn, t);
        for (std::thread &t : threads)
            t.join();
    };
    std::atomic<std::size_t> closed_next{0};
    std::vector<Sample> samples;
    // The closed loop for @p seconds; its samples are appended to
    // samples. @return completed jobs per second.
    const auto closedLoop = [&](double seconds) {
        std::vector<std::vector<Sample>> closed(kThreads);
        const Clock::time_point closed0 = Clock::now();
        const Clock::time_point closed_end =
            closed0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
        runThreads([&](int t) {
            while (Clock::now() < closed_end) {
                Sample batch[kClosedBatch];
                const Clock::time_point due = Clock::now();
                for (Sample &s : batch) {
                    s.key = closed_keys.at(closed_next++);
                    s.due = due;
                }
                exchange(port, batch, kClosedBatch);
                for (Sample &s : batch)
                    closed[t].push_back(std::move(s));
            }
        });
        const double wall = secondsBetween(closed0, Clock::now());
        std::size_t done = 0;
        for (std::vector<Sample> &v : closed) {
            done += v.size();
            for (Sample &s : v)
                samples.push_back(std::move(s));
        }
        return static_cast<double>(done) / wall;
    };
    closedLoop(kWarmupSeconds);
    const std::size_t n_warmup = samples.size();

    // 3./4. Open-loop and closed-loop phases, alternating in blocks so
    //       both sample the whole run (the host's slow spells then land
    //       on both alike instead of on one phase).
    const double open_s = kOpenShare * opt.seconds / kBlocks;
    const double closed_s = (1.0 - kOpenShare) * opt.seconds / kBlocks;
    const std::size_t n_block =
        static_cast<std::size_t>(open_s * kOpenLoopRate);
    std::vector<double> closed_rate; // jobs per second, per block
    for (int b = 0; b < kBlocks; ++b) {
        if (b > 0)
            spawnExtra();
        std::vector<Sample> open(n_block);
        const std::size_t base = static_cast<std::size_t>(b) * n_block;
        std::atomic<std::size_t> next{0};
        std::atomic<int> inflight{0};
        const Clock::time_point open0 = Clock::now();
        runThreads([&](int) {
            for (std::size_t i = next++; i < n_block; i = next++) {
                Sample &s = open[i];
                s.key = keys.at(base + i);
                s.open_loop = true;
                s.phase = static_cast<double>(i) /
                          static_cast<double>(n_block);
                s.due = open0 +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / kOpenLoopRate));
                std::this_thread::sleep_until(s.due - kSpin);
                while (Clock::now() < s.due) {
                }
                s.inflight = ++inflight;
                exchange(port, &s, 1);
                --inflight;
            }
        });
        for (Sample &s : open)
            samples.push_back(std::move(s));
        closed_rate.push_back(closedLoop(closed_s));
    }
    const std::size_t n_open = n_block * kBlocks;
    const std::size_t closed_done = samples.size() - n_warmup - n_open;

    // 5. Counters, memory, drain.
    int hz_status = 0;
    const std::string hz_body = httpGet(port, "/healthz", hz_status);
    if (hz_status != 200)
        throw std::runtime_error("/healthz after the load answered " +
                                 std::to_string(hz_status));
    const zac::json::Value hz = zac::json::parse(hz_body);
    const double rss_mb = daemon->peakRssMb();
    if (daemon->stop() != 0)
        res.fail("zac_serve did not drain cleanly");
    daemon.reset();

    const Clock::time_point verify0 = Clock::now();
    // 6. Verification. The hot keys and the first fresh passes are
    //    compiled offline one at a time (their outputs give the quality
    //    metrics and the digests; a traced run also rebuilds them span
    //    by span); every other key is compiled on the generator's
    //    threads.
    const auto ctx =
        zac::ArchContext::build(zac::presets::referenceZoned());
    zac::ZacOptions base = zac::ZacOptions::full();
    base.sa_threads = 1; // the daemon's default target
    std::unordered_map<std::string, std::vector<std::size_t>> by_key;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        Sample &s = samples[i];
        ++res.attempted;
        if (!s.io_ok || s.status != 200)
            res.fail(s.key.label() + ": request failed (status " +
                     std::to_string(s.status) + "): " +
                     s.head.substr(0, 200));
        else
            by_key[s.key.label()].push_back(i);
    }
    std::map<std::string, zac::Circuit> circuits;
    for (const std::string &n : keys.names())
        circuits.emplace(n, zac::service::resolveCircuit(n));

    std::mutex res_mu; // guards res and verified
    std::set<std::string> verified;
    // Compare every served record of @p key with the one rebuilt from
    // @p out: the rebuilt head must equal the served head byte for byte,
    // the program bytes must match in length and FNV-1a digest. @p track
    // adds the output to the run's digests.
    const auto check = [&](const Key &key, const zac::ZacStreamedResult &out,
                           bool track) {
        Result local;
        verifyOutput(out, ctx->arch, key.label(), local);
        const std::uint64_t zair_digest = zac::fnv1a(out.program_json);
        auto r = std::make_shared<zac::ZacStreamedResult>(out);
        r->program_json.clear(); // the head never reads it
        const auto it = by_key.find(key.label());
        if (it != by_key.end()) {
            for (std::size_t idx : it->second) {
                const Sample &s = samples[idx];
                try {
                    const zac::json::Value h = headJson(s);
                    zac::service::JobRecord rec = recordFromHead(h);
                    rec.circuit_hash =
                        circuits.at(key.circuit).contentHash();
                    r->compile_seconds = h.at("compile_seconds").asDouble();
                    const zac::json::Value &ph = h.at("phase_seconds");
                    r->phases.sa_seconds = ph.at("sa").asDouble();
                    r->phases.placement_seconds =
                        ph.at("placement").asDouble();
                    r->phases.scheduling_seconds =
                        ph.at("scheduling").asDouble();
                    r->phases.fidelity_seconds = ph.at("fidelity").asDouble();
                    rec.result = r;
                    std::string want =
                        zac::service::makeJobRecord(rec, "default", false)
                            .dump();
                    want.pop_back(); // '}'
                    if (want != s.head ||
                        s.zair_size != out.program_json.size() ||
                        s.zair_digest != zair_digest)
                        local.fail(key.label() + ": served record differs "
                                                 "from the offline compile");
                } catch (const std::exception &e) {
                    local.fail(key.label() + ": " + e.what());
                }
            }
        }
        std::lock_guard<std::mutex> lock(res_mu);
        res.failed += local.failed;
        res.correct = res.correct && local.correct;
        if (track)
            res.digests.insert(local.digests.begin(), local.digests.end());
        verified.insert(key.label());
    };
    const auto itemFor = [&](const Key &k) {
        zac::ZacOptions o = base;
        o.seed = k.seed;
        return CompileItem{ctx, o, &circuits.at(k.circuit)};
    };

    PassRunner runner;
    double duration_us = 0.0, transfers = 0.0, neg_log10 = 0.0,
           zero_terms = 0.0;
    std::vector<zac::ZacStreamedResult> outs;
    {
        // The hot keys first; this also warms the scratch buffers before
        // the passes trace.overhead_frac compares.
        std::vector<CompileItem> warm;
        for (const Key &k : keys.hot())
            warm.push_back(itemFor(k));
        runner.untimed(warm, outs);
        for (std::size_t i = 0; i < warm.size(); ++i)
            check(keys.hot()[i], outs[i], true);
        runner.untimed_s.clear();
    }
    const std::vector<std::vector<Key>> passes =
        keys.freshPasses(kFreshPasses);
    for (const std::vector<Key> &pass : passes) {
        std::vector<CompileItem> items;
        for (const Key &k : pass)
            items.push_back(itemFor(k));
        runner.untimed(items, outs);
        if (opt.trace)
            runner.traced(items, outs, res);
        for (std::size_t i = 0; i < pass.size(); ++i) {
            duration_us += outs[i].stats.makespan_us;
            transfers += outs[i].stats.num_atom_transfers;
            addFidelity(outs[i].fidelity, neg_log10, zero_terms);
            check(pass[i], outs[i], true);
        }
    }
    {
        std::vector<Key> rest;
        for (const auto &[label, idxs] : by_key)
            if (!verified.count(label))
                rest.push_back(samples[idxs.front()].key);
        std::atomic<std::size_t> rnext{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&] {
                zac::CompileScratch scratch;
                for (std::size_t i = rnext++; i < rest.size();
                     i = rnext++) {
                    const CompileItem it = itemFor(rest[i]);
                    const zac::ZacCompiler compiler(it.ctx, it.opts);
                    check(rest[i],
                          compiler.compileStreamed(*it.circuit,
                                                   zac::CompileControl{},
                                                   &scratch, false),
                          false);
                }
            });
        for (std::thread &t : threads)
            t.join();
    }
    for (const auto &[label, idxs] : by_key)
        if (!verified.count(label))
            res.fail(label + ": served but never verified");

    std::fprintf(stderr,
                 "perfbench: serve: %zu distinct keys verified in %.1f s\n",
                 verified.size(), secondsBetween(verify0, Clock::now()));
    // Metrics.
    std::vector<double> lat_ms, late_ms, queue_ms, compile_ms, net_ms;
    double hits = 0, responses = 0, bytes = 0;
    std::vector<int> inflight_q1, inflight_q4;
    std::map<std::string, std::vector<double>> miss_compile_s;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        if (!s.io_ok || s.status != 200)
            continue;
        ++responses;
        zac::json::Value h;
        try {
            h = headJson(s);
        } catch (const std::exception &) {
            continue;
        }
        const bool hit = h.contains("cache_hit") && h.at("cache_hit").asBool();
        if (hit)
            ++hits;
        else
            compile_ms.push_back(h.numberOr("compile_seconds", 0.0) * 1e3);
        if (!s.open_loop)
            continue;
        // A closed-loop exchange carries several jobs, so the network
        // metrics come from the open loop's one-job exchanges.
        bytes += static_cast<double>(s.bytes);
        net_ms.push_back(ms(s.connect, s.last_byte) -
                         h.numberOr("service_seconds", 0.0) * 1e3);
        if (!hit)
            miss_compile_s[s.key.circuit].push_back(
                h.numberOr("compile_seconds", 0.0));
        lat_ms.push_back(ms(s.due, s.last_byte));
        late_ms.push_back(ms(s.due, s.connect));
        queue_ms.push_back(h.numberOr("queue_seconds", 0.0) * 1e3);
        if (s.phase < 0.25)
            inflight_q1.push_back(s.inflight);
        else if (s.phase >= 0.75)
            inflight_q4.push_back(s.inflight);
    }
    std::fprintf(stderr,
                 "perfbench: serve: %zu warm-up + %zu open-loop + %zu "
                 "closed-loop jobs, p50 %.3f ms, p99 %.3f ms, late p99 "
                 "%.3f ms, %.1f jobs/s\n",
                 n_warmup, n_open, closed_done, median(lat_ms),
                 quantile(lat_ms, 0.99), quantile(late_ms, 0.99),
                 median(closed_rate));
    // Client-observed latency (open loop) and throughput (closed loop).
    // They move with the host's contention far more than compile time
    // does, so BENCHMARK.json lists them as per-layer metrics; run.py
    // keeps whichever its mode lists.
    res.metric("serve_p50_ms", median(lat_ms), "ms");
    res.metric("serve_p99_ms", quantile(lat_ms, 0.99), "ms");
    res.metric("serve_jobs_per_s", median(closed_rate), "1/s");
    if (!opt.trace) {
        // One pass over the 17 circuits as the daemon's workers compile
        // them under the open loop: per-circuit medians of the misses'
        // compile_seconds, summed. Sampled over the whole run, unlike a
        // single timed pass.
        double compile_s = 0.0;
        for (const std::string &c : keys.names()) {
            const auto it = miss_compile_s.find(c);
            if (it == miss_compile_s.end())
                throw std::runtime_error("no open-loop miss of " + c);
            compile_s += median(it->second);
        }
        res.metric("compile_s", compile_s, "s");
        res.metric("setup_s", median(setup_s), "s");
        res.metric("peak_rss_mb", rss_mb, "MiB");
        // Quality per fresh pass of the 17 paper circuits.
        res.metric("duration_us", duration_us / kFreshPasses, "us");
        res.metric("atom_transfers", transfers / kFreshPasses, "count");
        res.metric("neg_log10_fidelity", neg_log10 / kFreshPasses, "log10");
        res.metric("fidelity.zero_terms", zero_terms, "count");
        return;
    }

    const auto mean = [](const std::vector<int> &v) {
        double s = 0;
        for (int x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    const zac::json::Value &jobs = hz.at("jobs");
    const zac::json::Value &conns = hz.at("connections");
    const zac::json::Value &reqs = hz.at("requests");
    res.metric("arch.context_build_s",
               hz.at("warm_contexts").at("build_seconds").asDouble(), "s");
    runner.addLayerMetrics(res);
    res.metric("service.queue_wait_p50_ms", median(queue_ms), "ms");
    res.metric("service.queue_wait_p99_ms", quantile(queue_ms, 0.99),
               "ms");
    res.metric("service.compile_p50_ms", median(compile_ms), "ms");
    res.metric("service.cache_hit_ratio",
               responses > 0 ? hits / responses : 0.0, "ratio");
    res.metric("service.retries", jobs.at("retries").asDouble(), "count");
    res.metric("service.overloaded", jobs.at("overloaded").asDouble(),
               "count");
    res.metric("net.overhead_p50_ms", median(net_ms), "ms");
    res.metric("net.response_bytes",
               net_ms.empty() ? 0.0
                              : bytes / static_cast<double>(net_ms.size()),
               "B");
    res.metric("net.rejected",
               conns.at("rejected_overloaded").asDouble() +
                   reqs.at("lines_rejected").asDouble() +
                   reqs.at("bad").asDouble(),
               "count");
    res.metric("load.late_p99_ms", quantile(late_ms, 0.99), "ms");
    res.metric("load.backlog_grew",
               mean(inflight_q4) > 2.0 * mean(inflight_q1) + 1.0 ? 1.0 : 0.0,
               "bool");

    // Client-side spans, one tree per request, built after the load.
    Tracer &tr = runner.tracer();
    for (const Sample &s : samples) {
        if (!s.io_ok)
            continue;
        const int root = tr.add(s.open_loop ? "request.open"
                                            : "request.closed",
                                s.key.label(), -1, s.due, s.last_byte);
        tr.add("net.connect", s.key.label(), root, s.connect, s.sent);
        tr.add("net.wait_first_byte", s.key.label(), root, s.sent,
               s.first_byte);
        tr.add("net.receive", s.key.label(), root, s.first_byte,
               s.last_byte);
        try {
            const zac::json::Value h = headJson(s);
            for (const char *k :
                 {"queue_seconds", "compile_seconds", "service_seconds"})
                tr.attr(root, k, h.numberOr(k, 0.0));
        } catch (const std::exception &) {
        }
    }
    tr.writeJson(opt.out_dir + "/trace-serve-" + std::to_string(opt.seed) +
                 ".json");
}

} // namespace perfbench
