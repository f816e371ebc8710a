#include "serve/job_queue.hpp"

#include <algorithm>
#include <chrono>

namespace m3d::serve {

std::uint64_t JobQueue::submit(const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto job = std::make_shared<Job>();
  job->id = nextId_++;
  job->spec = spec;
  job->state = JobState::kQueued;
  job->baseKey = spec.baseKey();
  job->submitSeq = nextSeq_++;
  jobs_[job->id] = job;
  ++stats_.submitted;
  if (closed_) {
    // Late submit against a draining server: reject by instant cancel so
    // the client still gets a terminal state to wait on.
    job->state = JobState::kCancelled;
    job->error = "server is shutting down";
    ++stats_.cancelled;
    retireLocked(job->id);
  } else {
    pending_.push_back(job);
    ++stats_.queued;
  }
  cv_.notify_all();
  return job->id;
}

std::size_t JobQueue::pickLocked() const {
  std::size_t best = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Job& j = *pending_[i];
    const auto it = batches_.find(j.baseKey);
    if (it != batches_.end() && it->second.runningMembers > 0) continue;
    if (best == static_cast<std::size_t>(-1)) {
      best = i;
      continue;
    }
    const Job& b = *pending_[best];
    if (j.spec.priority > b.spec.priority ||
        (j.spec.priority == b.spec.priority && j.submitSeq < b.submitSeq)) {
      best = i;
    }
  }
  return best;
}

std::shared_ptr<Job> JobQueue::dequeue() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const std::size_t i = pickLocked();
    if (i != static_cast<std::size_t>(-1)) {
      std::shared_ptr<Job> job = pending_[i];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      --stats_.queued;
      ++stats_.running;
      job->state = JobState::kRunning;
      Batch& batch = batches_[job->baseKey];
      batch.runningMembers = 1;
      job->coalesced = batch.warm;
      if (job->coalesced) ++stats_.coalesced;
      // Only ECO jobs consume the seed: a repeat flow job re-derives its
      // routes from its own (warm) cache prefix.
      job->ecoSeedPath = job->spec.kind == JobKind::kEco ? batch.ecoSeedPath : "";
      cv_.notify_all();
      return job;
    }
    if (closed_) return nullptr;
    cv_.wait(lock);
  }
}

void JobQueue::complete(std::uint64_t jobId, bool ok, const JobResult& result,
                        const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end() || it->second->state != JobState::kRunning) return;
  Job& job = *it->second;
  --stats_.running;
  Batch& batch = batches_[job.baseKey];
  batch.runningMembers = 0;
  if (ok) {
    job.state = JobState::kDone;
    job.result = result;
    ++stats_.done;
    batch.warm = true;
    // The ECO seed must come from a base *flow* job so every sibling ECO
    // sees the same route input regardless of completion order.
    if (job.spec.kind == JobKind::kFlow && batch.ecoSeedPath.empty() &&
        !result.finalCheckpoint.empty()) {
      batch.ecoSeedPath = result.finalCheckpoint;
    }
  } else {
    job.state = JobState::kFailed;
    job.error = error;
    ++stats_.failed;
  }
  retireLocked(jobId);
  cv_.notify_all();
}

bool JobQueue::cancel(std::uint64_t jobId) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end() || it->second->state != JobState::kQueued) return false;
  it->second->state = JobState::kCancelled;
  const auto pos = std::find(pending_.begin(), pending_.end(), it->second);
  if (pos != pending_.end()) {
    pending_.erase(pos);
    --stats_.queued;
  }
  ++stats_.cancelled;
  retireLocked(jobId);
  cv_.notify_all();
  return true;
}

void JobQueue::retireLocked(std::uint64_t jobId) {
  finished_.push_back(jobId);
  while (finished_.size() > kMaxFinishedJobs) {
    // A waiter holds its own reference, so forgetting never frees its job.
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
}

std::shared_ptr<const Job> JobQueue::find(std::uint64_t jobId) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(jobId);
  // A copy: executors update the live job under the lock while the caller
  // reads its snapshot without it.
  return it == jobs_.end() ? nullptr : std::make_shared<const Job>(*it->second);
}

std::shared_ptr<const Job> JobQueue::waitJob(std::uint64_t jobId, int timeoutMs) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return nullptr;
  const std::shared_ptr<Job> job = it->second;
  const auto terminal = [&] { return jobStateTerminal(job->state); };
  if (timeoutMs > 0) {
    cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs), terminal);
  } else {
    cv_.wait(lock, terminal);
  }
  return std::make_shared<const Job>(*job);  // a snapshot, as in find()
}

void JobQueue::close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  for (const auto& job : pending_) {
    job->state = JobState::kCancelled;
    job->error = "server shut down before the job ran";
    ++stats_.cancelled;
    --stats_.queued;
    retireLocked(job->id);
  }
  pending_.clear();
  cv_.notify_all();
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

QueueStats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace m3d::serve
